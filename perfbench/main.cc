/**
 * @file
 * nasd_perfbench: one workload per invocation.
 *
 *   nasd_perfbench --workload mining_scan|mixed_ops|active_scan
 *                  --seed N --seconds S --trace 0|1 [--trace-out PATH]
 *
 * A run first prepares the workload's oracle reference, untimed. It
 * then sets the workload up kCycles times (each setup timed, the
 * median reported as setup_s) and after each setup runs timed passes:
 * at least the modelled window (passes 0..1), then more until the
 * cycle's share of --seconds is spent. With --trace 1 the modelled
 * window and every odd later pass are traced; the even later passes
 * stay untraced so the report can price the tracing itself.
 *
 * It prints a human-readable report and, as its last line, one JSON
 * object with every metric, its unit and kind, the sample counts and
 * the oracle verdicts.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/probe.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr int kCycles = 3;
constexpr double kPaperMBps = 45.0; // Figure 9 / Section 6 anchor

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
};

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            o.workload = value;
        else if (key == "--seed")
            o.seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            o.seconds = std::strtod(value, nullptr);
        else if (key == "--trace")
            o.trace = std::string_view(value) == "1";
        else if (key == "--trace-out")
            o.trace_out = value;
        else
            return false;
    }
    return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

SpanTotals
totalsOf(const Tracer &tracer, const char *name)
{
    const auto it = tracer.totals().find(name);
    return it == tracer.totals().end() ? SpanTotals{} : it->second;
}

/** Everything one setup + its passes produced. */
struct Cycle
{
    std::map<std::string, double> modelled; ///< must repeat every cycle
    std::uint64_t gen_allocs = 0;
    std::uint64_t window_run_allocs = 0;
};

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    if (!parse(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: nasd_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--trace-out PATH]\n");
        return 2;
    }
    if (makeWorkload(opt.workload) == nullptr) {
        std::fprintf(stderr, "nasd_perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    Tracer tracer;
    std::vector<double> setup_s, gen_host_s, pass_wall_s;
    std::vector<double> traced_s_per_event, untraced_s_per_event;
    std::vector<double> count_host_s, run_host_s, events_per_host_s;
    std::vector<Cycle> cycles;
    std::vector<std::string> verdicts;
    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    std::uint64_t window_events = 0;

    makeWorkload(opt.workload)->prepare(opt.seed);
    for (int c = 0; c < kCycles; ++c) {
        auto workload = makeWorkload(opt.workload);
        Cycle cycle;
        tracer.setEnabled(opt.trace);
        const SpanTotals gen0 = totalsOf(tracer, "apps.gen");
        const double t0 = hostNow();
        {
            ScopedSpan span(tracer, "setup", 0);
            workload->setup(tracer, opt.seed);
        }
        setup_s.push_back(hostNow() - t0);
        const SpanTotals gen1 = totalsOf(tracer, "apps.gen");
        gen_host_s.push_back(gen1.self_host_s - gen0.self_host_s);
        cycle.gen_allocs = gen1.self_allocs - gen0.self_allocs;

        auto &sim = workload->simulator();
        RegistrySnapshot before;
        Window window{workload->topology()};
        std::uint64_t events_before = 0, run_allocs_before = 0;
        double spent = 0;
        const int min_passes = opt.trace ? kModelledPasses + 2
                                         : kModelledPasses;
        for (int k = 0; k < min_passes || spent < opt.seconds / kCycles;
             ++k) {
            const bool traced =
                opt.trace && (k < kModelledPasses || k % 2 == 1);
            tracer.setEnabled(traced);
            if (k == 0) {
                before = RegistrySnapshot::take();
                events_before = sim.eventsExecuted();
                run_allocs_before = totalsOf(tracer, "sim.run").self_allocs;
            }
            const SpanTotals run0 = totalsOf(tracer, "sim.run");
            const SpanTotals count0 = totalsOf(tracer, "apps.count");
            const std::uint64_t pass_events0 = sim.eventsExecuted();
            const double h0 = hostNow();
            PassResult r;
            {
                ScopedSpan span(tracer, "pass", sim.now());
                r = workload->pass(tracer, k);
                span.setSimEnd(sim.now());
            }
            const double wall = hostNow() - h0;
            const auto pass_events = sim.eventsExecuted() - pass_events0;
            spent += wall;
            pass_wall_s.push_back(wall);
            if (k >= kModelledPasses) {
                (traced ? traced_s_per_event : untraced_s_per_event)
                    .push_back(wall / static_cast<double>(pass_events));
            }
            if (traced) {
                const SpanTotals run1 = totalsOf(tracer, "sim.run");
                const double run_s = run1.self_host_s - run0.self_host_s;
                run_host_s.push_back(run_s);
                count_host_s.push_back(
                    totalsOf(tracer, "apps.count").self_host_s -
                    count0.self_host_s);
                events_per_host_s.push_back(
                    static_cast<double>(pass_events) / run_s);
            }
            attempted += r.client_ops;
            failed += r.failed_ops;
            if (!r.oracle_ok)
                correct = false;
            if (c == 0 && (k == 0 || !r.oracle_ok))
                verdicts.push_back("pass " + std::to_string(k) + ": " +
                                   r.verdict);
            if (k < kModelledPasses) {
                window.sim_s += r.sim_s;
                window.client_ops += r.client_ops + r.overload_ops;
                window.user_bytes += r.user_bytes;
            }
            if (k == kModelledPasses - 1) {
                const RegistryDelta delta(before, RegistrySnapshot::take());
                cycle.modelled = layerCounters(delta, window);
                cycle.modelled["sim.events"] = static_cast<double>(
                    sim.eventsExecuted() - events_before);
                cycle.window_run_allocs =
                    totalsOf(tracer, "sim.run").self_allocs -
                    run_allocs_before;
            }
        }
        for (const auto &[name, value] : workload->modelled())
            cycle.modelled[name] = value;
        if (c == 0)
            window_events =
                static_cast<std::uint64_t>(cycle.modelled["sim.events"]);
        else if (cycle.modelled != cycles[0].modelled) {
            correct = false;
            verdicts.push_back("cycle " + std::to_string(c) +
                               ": modelled results differ from cycle 0 "
                               "(simulation is not deterministic)");
        }
        cycles.push_back(std::move(cycle));
        tracer.setEnabled(false);
        workload.reset(); // tear the cluster down outside any timing
    }
    if (!opt.trace_out.empty() && opt.trace &&
        !tracer.writeJson(opt.trace_out)) {
        std::fprintf(stderr, "nasd_perfbench: cannot write %s\n",
                     opt.trace_out.c_str());
        return 1;
    }

    const auto &m = cycles[0].modelled;
    const auto get = [&m](const std::string &name) {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second;
    };
    const bool is_active = m.count("active.bytes_scanned") != 0;

    // ---- end-to-end metrics (runs with tracing off) ---------------------
    struct E2e
    {
        const char *name, *unit, *kind;
        double value;
    };
    const std::vector<E2e> e2e = {
        {"setup_s", "s", "host", median(setup_s)},
        {"run_wall_s", "s", "host", median(pass_wall_s)},
        {"peak_rss_mb", "MB", "host", peakRssMb()},
        {"model_mbps", "MB/s", "modelled", get("model_mbps")},
    };

    // ---- per-layer metrics ---------------------------------------------
    std::map<std::string, double> layer = m;
    layer["apps.gen_host_s"] = median(gen_host_s);
    layer["apps.gen_allocs"] = static_cast<double>(cycles[0].gen_allocs);
    layer["apps.count_host_s"] = median(count_host_s);
    layer["sim.run_host_s"] = median(run_host_s);
    layer["sim.events_per_host_s"] = median(events_per_host_s);
    layer["sim.run_allocs"] = static_cast<double>(cycles[0].window_run_allocs);
    layer["pfs.read_ops"] = get("pfs.read_samples");
    if (is_active) {
        layer["active.drive_cpu_util"] = get("nasd.drive_cpu_util");
        layer["active.disk_mech_util"] = get("disk.mech_util");
    }
    // Host cost per simulated event, traced against untraced passes.
    const double traced_med = median(traced_s_per_event);
    const double untraced_med = median(untraced_s_per_event);
    layer["trace.overhead_pct"] =
        untraced_med > 0 && traced_med > 0
            ? (traced_med / untraced_med - 1.0) * 100.0
            : 0.0;

    // ---- human-readable report -------------------------------------------
    std::printf("workload %s, seed %llu, %s run: %d setups, %zu passes, "
                "%llu sim events in the modelled window\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "traced" : "untraced", kCycles,
                pass_wall_s.size(),
                static_cast<unsigned long long>(window_events));
    std::printf("end-to-end:\n");
    for (const auto &e : e2e)
        std::printf("  %-22s %14.6f %-5s [%s]\n", e.name, e.value, e.unit,
                    e.kind);
    if (m.count("pfs.read_samples") != 0 || is_active) {
        const double mbps = get("model_mbps");
        std::printf("  %-22s %14.6f %-5s [accuracy vs the paper's %.0f MB/s]\n",
                    "paper_error_pct",
                    std::abs(mbps - kPaperMBps) / kPaperMBps * 100.0, "%",
                    kPaperMBps);
    }
    std::printf("modelled (deterministic for the seed; samples in brackets):\n");
    for (const char *name :
         {"pfs.read_p50_ms", "pfs.read_p99_ms", "load.read_p50_ms",
          "load.read_p99_ms", "load.write_p50_ms", "load.write_p99_ms",
          "load.overload_p99_ms", "load.max_rate_ops", "load.failed_op_ratio",
          "load.overload_failed_ops", "active.scan_p50_ms"}) {
        if (m.count(name) == 0)
            continue;
        std::string samples;
        for (const char *base : {"pfs.read", "load.read", "load.write",
                                 "load.overload", "active.scan"}) {
            const std::string n(name), b(base);
            const auto key = b + "_samples";
            if (n.rfind(b + "_", 0) == 0 && m.count(key) != 0)
                samples = " [" + std::to_string(static_cast<long long>(
                                     m.at(key))) + " samples]";
        }
        std::printf("  %-26s %14.6f%s\n", name, m.at(name), samples.c_str());
    }
    for (const auto &[name, value] : m) {
        if (name.rfind("load.rate", 0) == 0)
            std::printf("  %-26s %14.6f\n", name.c_str(), value);
    }
    std::printf("oracle verdicts (%s):\n", correct ? "all pass" : "FAILED");
    for (const auto &v : verdicts)
        std::printf("  %s\n", v.c_str());
    if (opt.trace) {
        std::printf("per-layer (modelled window = passes 0..%d of setup 0):\n",
                    kModelledPasses - 1);
        for (const auto &spec : perLayerSpecs())
            std::printf("  %-32s %16.6f %s\n", spec.name, layer[spec.name],
                        spec.unit);
        std::printf("spans (count, host self s, simulated s):\n");
        for (const auto &[name, t] : tracer.totals())
            std::printf("  %-12s %9llu %12.6f %14.6f\n", name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.self_host_s, t.sim_s);
        std::printf("tracing overhead: %.2f%% host time per sim event, "
                    "traced vs untraced passes\n",
                    layer["trace.overhead_pct"]);
    }

    // ---- machine-readable last line ------------------------------------
    std::string out = "{\"workload\": \"" + opt.workload +
                      "\", \"seed\": " + std::to_string(opt.seed) +
                      ", \"trace\": " + (opt.trace ? "1" : "0") +
                      ", \"correct\": " + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"end_to_end\": {";
    for (std::size_t i = 0; i < e2e.size(); ++i) {
        out += (i ? ", \"" : "\"") + std::string(e2e[i].name) +
               "\": {\"value\": " + jsonNumber(e2e[i].value) +
               ", \"unit\": \"" + e2e[i].unit + "\", \"kind\": \"" +
               e2e[i].kind + "\"}";
    }
    out += "}, \"per_layer\": {";
    bool first = true;
    for (const auto &spec : perLayerSpecs()) {
        out += (first ? "\"" : ", \"") + std::string(spec.name) +
               "\": {\"value\": " + jsonNumber(layer[spec.name]) +
               ", \"unit\": \"" + spec.unit + "\"}";
        first = false;
    }
    out += "}, \"modelled\": {";
    first = true;
    for (const auto &[name, value] : m) {
        out += (first ? "\"" : ", \"") + name + "\": " + jsonNumber(value);
        first = false;
    }
    out += "}, \"verdicts\": [";
    for (std::size_t i = 0; i < verdicts.size(); ++i)
        out += (i ? ", \"" : "\"") + verdicts[i] + "\"";
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
}
