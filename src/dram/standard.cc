#include "dram/standard.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace hira {

const std::vector<MemoryStandard> &
standardRegistry()
{
    static const std::vector<MemoryStandard> registry = {
        {"ddr4_2400", "DDR4-2400", ddr4_2400, 8.0},
        {"ddr5_4800", "DDR5-4800", ddr5_4800, 16.0},
    };
    return registry;
}

std::string
knownStandardNames()
{
    std::string names;
    for (const MemoryStandard &s : standardRegistry())
        names += std::string(names.empty() ? "" : ", ") + s.name;
    return names;
}

const MemoryStandard &
standardByName(const std::string &name)
{
    for (const MemoryStandard &s : standardRegistry()) {
        if (name == s.name)
            return s;
    }
    fatal("unknown memory standard '%s'; the registry has: %s "
          "(dram/standard.cc)",
          name.c_str(), knownStandardNames().c_str());
}

std::string
defaultStandardName()
{
    const char *v = std::getenv("HIRA_STANDARD");
    if (v == nullptr || *v == '\0')
        return "ddr4_2400";
    // Validate eagerly: a misspelled HIRA_STANDARD must not run a whole
    // sweep on the DDR4 fallback.
    return standardByName(v).name;
}

} // namespace hira
