#include "common/trace_events.hh"

#include <cstdio>
#include <cstdlib>

#include "common/json.hh"
#include "common/logging.hh"

namespace hira {

TraceEventLog &
TraceEventLog::global()
{
    static TraceEventLog log;
    return log;
}

TraceEventLog::TraceEventLog()
{
    t0_ = std::chrono::steady_clock::now();
    const char *path = std::getenv("HIRA_TRACE_EVENTS");
    if (path != nullptr && *path != '\0') {
        path_ = path;
        enabled_ = true;
    }
}

TraceEventLog::~TraceEventLog()
{
    flush();
}

double
TraceEventLog::nowUs() const
{
    auto dt = std::chrono::steady_clock::now() - t0_;
    return std::chrono::duration<double, std::micro>(dt).count();
}

int
TraceEventLog::tidLocked()
{
    auto id = std::this_thread::get_id();
    auto it = tids_.find(id);
    if (it == tids_.end())
        it = tids_.emplace(id, static_cast<int>(tids_.size())).first;
    return it->second;
}

void
TraceEventLog::emitLocked(std::string event)
{
    if (!enabled_ || flushed_)
        return;
    events_.push_back(std::move(event));
}

void
TraceEventLog::begin(const std::string &name, const char *category)
{
    if (!enabled_)
        return;
    double ts = nowUs();
    std::lock_guard<std::mutex> lock(m);
    emitLocked(strprintf(
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"B\", "
        "\"ts\": %.3f, \"pid\": 1, \"tid\": %d}",
        jsonEscape(name).c_str(), category, ts, tidLocked()));
}

void
TraceEventLog::end(const std::string &name, const char *category)
{
    if (!enabled_)
        return;
    double ts = nowUs();
    std::lock_guard<std::mutex> lock(m);
    emitLocked(strprintf(
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"E\", "
        "\"ts\": %.3f, \"pid\": 1, \"tid\": %d}",
        jsonEscape(name).c_str(), category, ts, tidLocked()));
}

void
TraceEventLog::complete(const std::string &name, const char *category,
                        double ts_us, double dur_us,
                        const std::string &args_json)
{
    if (!enabled_)
        return;
    std::string args;
    if (!args_json.empty())
        args = strprintf(", \"args\": {%s}", args_json.c_str());
    std::lock_guard<std::mutex> lock(m);
    emitLocked(strprintf(
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d%s}",
        jsonEscape(name).c_str(), category, ts_us, dur_us, tidLocked(),
        args.c_str()));
}

void
TraceEventLog::counter(const std::string &name, double value)
{
    if (!enabled_)
        return;
    double ts = nowUs();
    std::lock_guard<std::mutex> lock(m);
    emitLocked(strprintf(
        "{\"name\": \"%s\", \"cat\": \"counter\", \"ph\": \"C\", "
        "\"ts\": %.3f, \"pid\": 1, \"tid\": %d, "
        "\"args\": {\"value\": %g}}",
        jsonEscape(name).c_str(), ts, tidLocked(), value));
}

void
TraceEventLog::flush()
{
    std::lock_guard<std::mutex> lock(m);
    if (!enabled_ || flushed_)
        return;
    flushed_ = true;
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
        warn("HIRA_TRACE_EVENTS: cannot open '%s' for writing",
             path_.c_str());
        return;
    }
    std::fputs("{\"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < events_.size(); ++i) {
        std::fputs(events_[i].c_str(), f);
        if (i + 1 < events_.size())
            std::fputc(',', f);
        std::fputc('\n', f);
    }
    std::fputs("], \"displayTimeUnit\": \"ms\"}\n", f);
    std::fclose(f);
    events_.clear();
    events_.shrink_to_fit();
}

void
TraceEventLog::resetForTest(const std::string &path)
{
    std::lock_guard<std::mutex> lock(m);
    events_.clear();
    tids_.clear();
    flushed_ = false;
    path_ = path;
    enabled_ = !path.empty();
    t0_ = std::chrono::steady_clock::now();
}

std::size_t
TraceEventLog::bufferedEvents() const
{
    std::lock_guard<std::mutex> lock(m);
    return events_.size();
}

} // namespace hira
