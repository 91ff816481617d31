/**
 * @file
 * DDR4 command vocabulary. HiRA is not a new command: it is the sequence
 * ACT - t1 - PRE - t2 - ACT of standard commands (Section 3), so only the
 * standard commands appear here. The controller and the trace auditor tag
 * commands that belong to a HiRA sequence so the auditor knows which
 * nominal-timing rules are deliberately violated.
 */

#ifndef HIRA_DRAM_COMMAND_HH
#define HIRA_DRAM_COMMAND_HH

#include <string>

#include "common/types.hh"

namespace hira {

/** DDR4 commands relevant to this work (Section 2.2). */
enum class CommandType
{
    ACT,  //!< open a row
    PRE,  //!< close the open row / precharge the bank
    PREA, //!< precharge all banks in a rank
    RD,   //!< column read
    WR,   //!< column write
    REF,  //!< all-bank refresh
};

/** Role of a command within a HiRA sequence, for the trace auditor. */
enum class HiraRole
{
    None,      //!< ordinary command, nominal timing applies
    FirstAct,  //!< HiRA's first ACT (refresh target)
    CutPre,    //!< HiRA's PRE issued t1 after the first ACT
    SecondAct, //!< HiRA's second ACT issued t2 after the PRE
};

/** A scheduled DRAM command instance. */
struct Command
{
    CommandType type = CommandType::ACT;
    Cycle cycle = 0;        //!< issue time, bus cycles
    int channel = 0;
    int rank = 0;
    BankId bank = 0;        //!< flat bank id within the rank
    RowId row = 0;          //!< for ACT
    std::uint32_t col = 0;  //!< for RD/WR
    HiraRole hiraRole = HiraRole::None;
};

/** Short mnemonic for logs and test failure messages. */
inline const char *
commandName(CommandType t)
{
    switch (t) {
      case CommandType::ACT: return "ACT";
      case CommandType::PRE: return "PRE";
      case CommandType::PREA: return "PREA";
      case CommandType::RD: return "RD";
      case CommandType::WR: return "WR";
      case CommandType::REF: return "REF";
    }
    return "?";
}

} // namespace hira

#endif // HIRA_DRAM_COMMAND_HH
