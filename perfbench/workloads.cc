#include "perfbench/workloads.h"

#include "apps/transactions.h"

namespace perfbench {

const nasd::apps::ItemCounts &
scanReference(std::uint64_t seed)
{
    static std::map<std::uint64_t, nasd::apps::ItemCounts> cache;
    const auto it = cache.find(seed);
    if (it != cache.end())
        return it->second;
    nasd::apps::DatasetParams params;
    params.catalog_items = kScanCatalogItems;
    params.seed = seed;
    const nasd::apps::TransactionGenerator gen(params);
    nasd::apps::ItemCounts counts(kScanCatalogItems, 0);
    for (std::uint64_t c = 0; c < kScanDatasetBytes / nasd::apps::kChunkBytes;
         ++c) {
        nasd::apps::mergeCounts(
            counts, nasd::apps::countOneItemsets(gen.chunk(c),
                                                 kScanCatalogItems));
    }
    return cache.emplace(seed, std::move(counts)).first->second;
}

void
runSim(Tracer &tracer, nasd::sim::Simulator &sim)
{
    ScopedSpan span(tracer, "sim.run", sim.now());
    sim.run();
    span.setSimEnd(sim.now());
}

void
runTask(Tracer &tracer, nasd::sim::Simulator &sim,
        nasd::sim::Task<void> task)
{
    sim.spawn(std::move(task));
    runSim(tracer, sim);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "mining_scan")
        return makeMiningScan();
    if (name == "mixed_ops")
        return makeMixedOps();
    if (name == "active_scan")
        return makeActiveScan();
    return nullptr;
}

} // namespace perfbench
