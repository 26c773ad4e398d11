/**
 * @file
 * The benchmark's workloads. Each one stands up a simulated NASD
 * cluster inside its own util::MetricsScope (setup), then runs timed
 * passes over it. Passes 0 and 1 form the *modelled window*: their
 * simulated results are deterministic for a seed and are what the
 * modelled metrics and per-layer counters are computed from. Later
 * passes repeat the same kind of work to time the host.
 */
#ifndef NASD_PERFBENCH_WORKLOADS_H_
#define NASD_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/frequent_sets.h"
#include "perfbench/probe.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/units.h"

namespace perfbench {

/** Number of passes that form the modelled window. */
inline constexpr int kModelledPasses = 2;

/** The scans' dataset: 300 MB of TransactionGenerator sales data. */
inline constexpr std::uint64_t kScanDatasetBytes = 300 * nasd::util::kMB;
inline constexpr std::uint32_t kScanCatalogItems = 500;

/**
 * The scans' oracle: the 1-itemset counts of the seed's dataset, taken
 * from a TransactionGenerator of its own. Computed on first use and
 * kept for the rest of the process.
 */
const nasd::apps::ItemCounts &scanReference(std::uint64_t seed);

/** What one timed pass did, as seen from outside. */
struct PassResult
{
    double sim_s = 0;             ///< simulated duration of the pass
    std::uint64_t user_bytes = 0; ///< bytes the client ops asked for
    std::uint64_t client_ops = 0; ///< ops issued (JSON "attempted")
    std::uint64_t failed_ops = 0; ///< errors/mismatches (JSON "failed")
    /// Ops offered past the knee: measured and reported, but their
    /// timeouts are the overload being studied, not benchmark failures.
    std::uint64_t overload_ops = 0;
    bool oracle_ok = true;
    std::string verdict;          ///< one line, printed in the report
};

/** Topology facts the per-layer metrics need. */
struct Topology
{
    int drives = 0;
    std::string client_prefix; ///< node-name prefix of the clients
    int clients = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Untimed work before the first setup: what the oracle needs. */
    virtual void prepare(std::uint64_t seed) { (void)seed; }

    /** Build the cluster and load its data for @p seed. */
    virtual void setup(Tracer &tracer, std::uint64_t seed) = 0;

    /** Run timed pass @p index over the cluster. */
    virtual PassResult pass(Tracer &tracer, int index) = 0;

    /** Modelled metrics of the modelled window (passes 0..1). */
    virtual std::map<std::string, double> modelled() const = 0;

    virtual sim::Simulator &simulator() = 0;
    virtual Topology topology() const = 0;
};

/** A fresh, not yet set up workload; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** sim.run() inside a "sim.run" span. */
void runSim(Tracer &tracer, nasd::sim::Simulator &sim);

/** Run one task to completion inside a "sim.run" span. */
void runTask(Tracer &tracer, nasd::sim::Simulator &sim,
             nasd::sim::Task<void> task);

/** Run a value-returning task to completion inside a "sim.run" span. */
template <typename T>
T
runFor(Tracer &tracer, nasd::sim::Simulator &sim, nasd::sim::Task<T> task)
{
    std::optional<T> result;
    sim.spawn([](nasd::sim::Task<T> t,
                 std::optional<T> &out) -> nasd::sim::Task<void> {
        out = co_await std::move(t);
    }(std::move(task), result));
    runSim(tracer, sim);
    return std::move(*result);
}

std::unique_ptr<Workload> makeMiningScan();
std::unique_ptr<Workload> makeActiveScan();
std::unique_ptr<Workload> makeMixedOps();

} // namespace perfbench

#endif // NASD_PERFBENCH_WORKLOADS_H_
