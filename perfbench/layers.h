/**
 * @file
 * Per-layer metrics read from outside: deltas of the util::metrics()
 * registry over the modelled window, named by the layer they measure.
 */
#ifndef NASD_PERFBENCH_LAYERS_H_
#define NASD_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/workloads.h"

namespace perfbench {

/** The measured window a registry delta covers. */
struct Window
{
    Topology topology;
    double sim_s = 0;
    std::uint64_t client_ops = 0;
    std::uint64_t user_bytes = 0;
};

/** cheops / nasd / disk / net counters, summed over drives and clients. */
std::map<std::string, double> layerCounters(const RegistryDelta &delta,
                                            const Window &window);

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in report order. A workload that does not
 *  exercise a layer reports its metrics as 0. */
const std::vector<MetricSpec> &perLayerSpecs();

} // namespace perfbench

#endif // NASD_PERFBENCH_LAYERS_H_
