/**
 * @file
 * Outside-in instruments of the benchmark: a host clock, a counting
 * global operator new, a span tracer around the benchmark's calls into
 * the simulator's public functions, and snapshots of the
 * util::metrics() registry so a measured window can be read as deltas.
 */
#ifndef NASD_PERFBENCH_PROBE_H_
#define NASD_PERFBENCH_PROBE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"
#include "util/log_histogram.h"
#include "util/metrics.h"

namespace perfbench {

namespace sim = nasd::sim;

/** Host wall clock, seconds since an arbitrary epoch. */
double hostNow();

/** Calls to the global operator new since process start. */
std::uint64_t allocCount();

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** Per-name running totals of finished spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double self_host_s = 0;       ///< synchronous spans only
    std::uint64_t self_allocs = 0; ///< synchronous spans only
    double sim_s = 0;             ///< simulated duration, summed
};

/**
 * In-memory span recorder. Synchronous spans nest on a stack and get
 * host self time and self allocation counts; asynchronous spans
 * (coroutine ops) record host and simulated start/end, an explicit
 * parent, and a request id shared by the spans of one client op.
 * When disabled every call is a no-op returning span id 0.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }

    std::uint32_t begin(const char *name, sim::Tick sim_now,
                        std::uint64_t request = 0);
    void end(std::uint32_t id, sim::Tick sim_now);

    std::uint32_t beginAsync(const char *name, std::uint32_t parent,
                             std::uint64_t request, sim::Tick sim_now);
    void endAsync(std::uint32_t id, sim::Tick sim_now);

    /** Innermost open synchronous span (0 = none). */
    std::uint32_t current() const
    {
        return stack_.empty() ? 0 : stack_.back();
    }

    std::uint64_t newRequest() { return ++last_request_; }

    const std::map<std::string, SpanTotals> &totals() const
    {
        return totals_;
    }

    /** Write every recorded span as JSON to @p path. */
    bool writeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name = "";
        std::uint32_t parent = 0;
        std::uint64_t request = 0;
        bool async = false;
        double host_begin = 0, host_end = 0, host_child = 0;
        sim::Tick sim_begin = 0, sim_end = 0;
        std::uint64_t allocs_begin = 0, allocs_end = 0, allocs_child = 0;
    };

    bool enabled_ = false;
    std::vector<Span> spans_{Span{}}; ///< index 0 is "no span"
    std::vector<std::uint32_t> stack_;
    std::map<std::string, SpanTotals> totals_;
    std::uint64_t last_request_ = 0;
};

/** RAII synchronous span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, sim::Tick sim_now,
               std::uint64_t request = 0)
        : tracer_(tracer), id_(tracer.begin(name, sim_now, request))
    {}
    ~ScopedSpan() { tracer_.end(id_, sim_end_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Simulated time recorded as the span's end. */
    void setSimEnd(sim::Tick t) { sim_end_ = t; }

  private:
    Tracer &tracer_;
    std::uint32_t id_;
    sim::Tick sim_end_ = 0;
};

/** A copy of every counter and latency histogram of the registry. */
struct RegistrySnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, nasd::util::LogHistogram> latencies;

    static RegistrySnapshot take();
};

/** Counter and histogram deltas between two snapshots. */
class RegistryDelta
{
  public:
    RegistryDelta(const RegistrySnapshot &before,
                  const RegistrySnapshot &after);

    /** Sum of deltas of counters whose path starts with @p prefix and
     *  ends with @p suffix. */
    std::uint64_t sum(const std::string &prefix,
                      const std::string &suffix) const;

    /** Number of counters matching @p prefix and @p suffix. */
    std::size_t count(const std::string &prefix,
                      const std::string &suffix) const;

    /** Merged delta histogram of matching latency instruments. */
    nasd::util::LogHistogram latency(const std::string &prefix,
                                     const std::string &suffix) const;

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, nasd::util::LogHistogram> latencies_;
};

/** Exact percentile (nearest rank) of @p values; 0 when empty. */
double percentile(std::vector<double> values, double p);

} // namespace perfbench

#endif // NASD_PERFBENCH_PROBE_H_
