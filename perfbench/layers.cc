#include "perfbench/layers.h"

namespace perfbench {
namespace {

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

double
ms(const nasd::util::LogHistogram &h, double p)
{
    return h.percentile(p) / 1e6;
}

} // namespace

std::map<std::string, double>
layerCounters(const RegistryDelta &d, const Window &w)
{
    std::map<std::string, double> m;
    const auto sum = [&d](const char *prefix, const char *suffix) {
        return static_cast<double>(d.sum(prefix, suffix));
    };
    const double sim_ns = w.sim_s * 1e9;

    // cheops: client-library ops and manager traffic.
    const auto cheops_read = d.latency("", "/cheops/ops/read/latency_ns");
    const auto cheops_write = d.latency("", "/cheops/ops/write/latency_ns");
    m["cheops.read_ops"] = static_cast<double>(cheops_read.count());
    m["cheops.write_ops"] = static_cast<double>(cheops_write.count());
    m["cheops.read_p99_ms"] = ms(cheops_read, 99);
    m["cheops.write_p99_ms"] = ms(cheops_write, 99);
    m["cheops.manager_calls"] = sum("", "/cheops/manager_calls");
    m["cheops.control_ops"] = sum("mgr/", "/control_ops");
    m["cheops.reconstructed_units"] = sum("", "/cheops/reconstructed_units");

    // nasd: drive ops, their fan-out, latency and attribution.
    const double drive_ops = sum("nasd", "/count");
    m["nasd.client_ops"] = static_cast<double>(w.client_ops);
    m["nasd.drive_ops"] = drive_ops;
    for (const char *op : {"read", "write", "getattr"}) {
        m[std::string("nasd.drive_ops.") + op] =
            sum("nasd", (std::string("/ops/") + op + "/count").c_str());
    }
    m["nasd.drive_ops_per_client_op"] =
        ratio(drive_ops, static_cast<double>(w.client_ops));
    for (const char *op : {"read", "write"}) {
        const auto h =
            d.latency("nasd", std::string("/ops/") + op + "/latency_ns");
        m[std::string("nasd.op_p50_ms.") + op] = ms(h, 50);
        m[std::string("nasd.op_p99_ms.") + op] = ms(h, 99);
    }
    for (const char *cls : {"cpu", "disk_bus", "disk_mech", "net_tx", "net_rx"}) {
        for (const char *phase : {"wait", "service"}) {
            const std::string leaf =
                std::string("_") + phase + "_ns";
            m[std::string("nasd.attr.") + cls + "_" + phase + "_ms"] =
                ratio(sum("nasd", ("/attr/" + std::string(cls) + leaf).c_str()),
                      drive_ops) /
                1e6;
        }
    }
    const double hit_bytes = sum("store", "/cache_hit_bytes");
    const double lookup_bytes = hit_bytes + sum("store", "/cache_miss_bytes");
    m["nasd.cache_lookup_bytes"] = lookup_bytes;
    m["nasd.cache_hit_ratio"] = ratio(hit_bytes, lookup_bytes);
    m["nasd.meta_misses"] = sum("store", "/meta_misses");
    m["nasd.rpc_timeouts"] = sum("", "/net/rpc_timeouts");
    m["nasd.rpc_late_replies"] = sum("", "/net/rpc_late_replies");
    m["nasd.drive_cpu_util"] =
        ratio(sum("nasd", "/cpu/service_ns"), w.topology.drives * sim_ns);

    // disk: the modelled mechanisms under the object stores.
    const double disks =
        static_cast<double>(d.count("disk", "/mech_service_ns"));
    m["disk.seeks"] = sum("disk", "/seeks");
    m["disk.media_blocks_read"] = sum("disk", "/media_blocks_read");
    m["disk.media_blocks_written"] = sum("disk", "/media_blocks_written");
    const double ra_hits = sum("disk", "/cache_hits");
    const double ra_lookups = ra_hits + sum("disk", "/cache_misses");
    m["disk.readahead_lookups"] = ra_lookups;
    m["disk.readahead_hit_ratio"] = ratio(ra_hits, ra_lookups);
    m["disk.mech_util"] =
        ratio(sum("disk", "/mech_service_ns"), disks * sim_ns);

    // net: wire traffic against what the clients asked for.
    const double wire = sum("", "/net/bytes_sent");
    m["net.bytes_sent"] = wire;
    m["net.user_bytes"] = static_cast<double>(w.user_bytes);
    m["net.wire_bytes_per_user_byte"] =
        ratio(wire, static_cast<double>(w.user_bytes));
    m["net.tx_wait_ms"] =
        ratio(sum("", "/net/tx_wait_ns"), static_cast<double>(w.client_ops)) /
        1e6;
    m["net.rx_wait_ms"] =
        ratio(sum("", "/net/rx_wait_ns"), static_cast<double>(w.client_ops)) /
        1e6;
    m["net.client_cpu_util"] =
        ratio(sum(w.topology.client_prefix.c_str(), "/cpu/service_ns"),
              w.topology.clients * sim_ns);
    return m;
}

const std::vector<MetricSpec> &
perLayerSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"apps.gen_host_s", "s"},
        {"apps.gen_allocs", "count"},
        {"apps.count_host_s", "s"},
        {"sim.events", "count"},
        {"sim.run_host_s", "s"},
        {"sim.events_per_host_s", "1/s"},
        {"sim.run_allocs", "count"},
        {"pfs.read_ops", "count"},
        {"pfs.read_p50_ms", "ms"},
        {"pfs.read_p99_ms", "ms"},
        {"cheops.read_ops", "count"},
        {"cheops.write_ops", "count"},
        {"cheops.read_p99_ms", "ms"},
        {"cheops.write_p99_ms", "ms"},
        {"cheops.manager_calls", "count"},
        {"cheops.control_ops", "count"},
        {"cheops.reconstructed_units", "count"},
        {"nasd.client_ops", "count"},
        {"nasd.drive_ops", "count"},
        {"nasd.drive_ops.read", "count"},
        {"nasd.drive_ops.write", "count"},
        {"nasd.drive_ops.getattr", "count"},
        {"nasd.drive_ops_per_client_op", "ratio"},
        {"nasd.op_p50_ms.read", "ms"},
        {"nasd.op_p99_ms.read", "ms"},
        {"nasd.op_p50_ms.write", "ms"},
        {"nasd.op_p99_ms.write", "ms"},
        {"nasd.attr.cpu_wait_ms", "ms"},
        {"nasd.attr.cpu_service_ms", "ms"},
        {"nasd.attr.disk_bus_wait_ms", "ms"},
        {"nasd.attr.disk_bus_service_ms", "ms"},
        {"nasd.attr.disk_mech_wait_ms", "ms"},
        {"nasd.attr.disk_mech_service_ms", "ms"},
        {"nasd.attr.net_tx_wait_ms", "ms"},
        {"nasd.attr.net_tx_service_ms", "ms"},
        {"nasd.attr.net_rx_wait_ms", "ms"},
        {"nasd.attr.net_rx_service_ms", "ms"},
        {"nasd.cache_lookup_bytes", "B"},
        {"nasd.cache_hit_ratio", "ratio"},
        {"nasd.meta_misses", "count"},
        {"nasd.rpc_timeouts", "count"},
        {"nasd.rpc_late_replies", "count"},
        {"nasd.drive_cpu_util", "ratio"},
        {"disk.seeks", "count"},
        {"disk.media_blocks_read", "count"},
        {"disk.media_blocks_written", "count"},
        {"disk.readahead_lookups", "count"},
        {"disk.readahead_hit_ratio", "ratio"},
        {"disk.mech_util", "ratio"},
        {"net.bytes_sent", "B"},
        {"net.user_bytes", "B"},
        {"net.wire_bytes_per_user_byte", "ratio"},
        {"net.tx_wait_ms", "ms"},
        {"net.rx_wait_ms", "ms"},
        {"net.client_cpu_util", "ratio"},
        {"active.bytes_scanned", "B"},
        {"active.result_bytes", "B"},
        {"active.drive_cpu_util", "ratio"},
        {"active.disk_mech_util", "ratio"},
        {"load.read_p50_ms", "ms"},
        {"load.read_p99_ms", "ms"},
        {"load.write_p50_ms", "ms"},
        {"load.write_p99_ms", "ms"},
        {"load.overload_p99_ms", "ms"},
        {"load.max_rate_ops", "ops/s"},
        {"load.failed_op_ratio", "ratio"},
        {"load.overload_failed_ops", "count"},
        {"load.generator_late_ms", "ms"},
        {"trace.overhead_pct", "%"},
    };
    return specs;
}

} // namespace perfbench
