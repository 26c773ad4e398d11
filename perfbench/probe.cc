#include "perfbench/probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

// ------------------------------------------------------ counting allocator
//
// Every global operator new of the process goes through here, so a
// span's allocation count is the difference of this counter across it.
// The process is single-threaded; a plain counter suffices.

namespace {

std::uint64_t g_allocs = 0;
bool g_paused = false; ///< the tracer's own bookkeeping is not counted

void *
countedAlloc(std::size_t size)
{
    g_allocs += g_paused ? 0 : 1;
    if (size == 0)
        size = 1;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    g_allocs += g_paused ? 0 : 1;
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) /
                                a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench {

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
allocCount()
{
    return g_allocs;
}

/** Stops allocation counting for the life of the guard. */
struct PauseCounting
{
    bool was = g_paused;
    PauseCounting() { g_paused = true; }
    ~PauseCounting() { g_paused = was; }
};

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB -> MB
}

// ------------------------------------------------------------------ Tracer

std::uint32_t
Tracer::begin(const char *name, sim::Tick sim_now, std::uint64_t request)
{
    if (!enabled_)
        return 0;
    const PauseCounting pause;
    Span s;
    s.name = name;
    s.parent = current();
    s.request = request;
    s.sim_begin = sim_now;
    s.allocs_begin = allocCount();
    s.host_begin = hostNow();
    spans_.push_back(s);
    const auto id = static_cast<std::uint32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::end(std::uint32_t id, sim::Tick sim_now)
{
    if (id == 0)
        return;
    const PauseCounting pause;
    const double now = hostNow();
    const std::uint64_t allocs = allocCount();
    Span &s = spans_[id];
    s.host_end = now;
    s.allocs_end = allocs;
    s.sim_end = std::max(sim_now, s.sim_begin);
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
    const double dur = s.host_end - s.host_begin;
    const std::uint64_t dallocs = s.allocs_end - s.allocs_begin;
    if (s.parent != 0) {
        spans_[s.parent].host_child += dur;
        spans_[s.parent].allocs_child += dallocs;
    }
    SpanTotals &t = totals_[s.name];
    ++t.count;
    t.self_host_s += dur - s.host_child;
    t.self_allocs += dallocs - s.allocs_child;
    t.sim_s += sim::toSeconds(s.sim_end - s.sim_begin);
}

std::uint32_t
Tracer::beginAsync(const char *name, std::uint32_t parent,
                   std::uint64_t request, sim::Tick sim_now)
{
    if (!enabled_)
        return 0;
    const PauseCounting pause;
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.async = true;
    s.sim_begin = sim_now;
    s.host_begin = hostNow();
    spans_.push_back(s);
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

void
Tracer::endAsync(std::uint32_t id, sim::Tick sim_now)
{
    if (id == 0)
        return;
    const PauseCounting pause;
    Span &s = spans_[id];
    s.host_end = hostNow();
    s.sim_end = sim_now;
    SpanTotals &t = totals_[s.name];
    ++t.count;
    t.sim_s += sim::toSeconds(s.sim_end - s.sim_begin);
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 1; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(
            f,
            "%s{\"id\": %zu, \"name\": \"%s\", \"parent\": %u, "
            "\"request\": %llu, \"kind\": \"%s\", \"host_begin_s\": %.9f, "
            "\"host_end_s\": %.9f, \"self_host_s\": %.9f, "
            "\"self_allocs\": %llu, \"sim_begin_ns\": %llu, "
            "\"sim_end_ns\": %llu}",
            i == 1 ? "" : ",\n", i, s.name, s.parent,
            static_cast<unsigned long long>(s.request),
            s.async ? "async" : "sync", s.host_begin, s.host_end,
            s.async ? 0.0 : s.host_end - s.host_begin - s.host_child,
            static_cast<unsigned long long>(
                s.async ? 0 : s.allocs_end - s.allocs_begin - s.allocs_child),
            static_cast<unsigned long long>(s.sim_begin),
            static_cast<unsigned long long>(s.sim_end));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ------------------------------------------------------ registry snapshots

RegistrySnapshot
RegistrySnapshot::take()
{
    RegistrySnapshot snap;
    nasd::util::metrics().forEachCounter(
        [&snap](const std::string &path, const nasd::util::Counter &c) {
            snap.counters.emplace(path, c.value());
        });
    nasd::util::metrics().forEachLatency(
        [&snap](const std::string &path,
                const nasd::util::LogHistogram &h) {
            snap.latencies.emplace(path, h);
        });
    return snap;
}

RegistryDelta::RegistryDelta(const RegistrySnapshot &before,
                             const RegistrySnapshot &after)
{
    for (const auto &[path, value] : after.counters) {
        const auto it = before.counters.find(path);
        counters_[path] =
            value - (it == before.counters.end() ? 0 : it->second);
    }
    for (const auto &[path, hist] : after.latencies) {
        std::map<std::uint64_t, std::uint64_t> prior;
        if (const auto it = before.latencies.find(path);
            it != before.latencies.end()) {
            it->second.forEachBucket(
                [&prior](std::uint64_t lower, std::uint64_t,
                         std::uint64_t count) { prior[lower] = count; });
        }
        nasd::util::LogHistogram delta;
        hist.forEachBucket([&prior, &delta](std::uint64_t lower,
                                            std::uint64_t,
                                            std::uint64_t count) {
            const std::uint64_t n = count - prior[lower];
            if (n != 0)
                delta.recordN(lower, n);
        });
        latencies_.emplace(path, std::move(delta));
    }
}

namespace {

bool
matches(const std::string &path, const std::string &prefix,
        const std::string &suffix)
{
    return path.size() >= prefix.size() + suffix.size() &&
           path.compare(0, prefix.size(), prefix) == 0 &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

std::uint64_t
RegistryDelta::sum(const std::string &prefix, const std::string &suffix) const
{
    std::uint64_t total = 0;
    for (const auto &[path, value] : counters_) {
        if (matches(path, prefix, suffix))
            total += value;
    }
    return total;
}

std::size_t
RegistryDelta::count(const std::string &prefix,
                     const std::string &suffix) const
{
    std::size_t n = 0;
    for (const auto &entry : counters_)
        n += matches(entry.first, prefix, suffix) ? 1 : 0;
    return n;
}

nasd::util::LogHistogram
RegistryDelta::latency(const std::string &prefix,
                       const std::string &suffix) const
{
    nasd::util::LogHistogram merged;
    for (const auto &[path, hist] : latencies_) {
        if (matches(path, prefix, suffix))
            merged.merge(hist);
    }
    return merged;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return values[std::min(idx, values.size() - 1)];
}

} // namespace perfbench
