/**
 * @file
 * Hardware presets matching the paper's testbed.
 */
#ifndef NASD_NET_PRESETS_H_
#define NASD_NET_PRESETS_H_

#include <string>
#include <utility>

#include "net/network.h"

namespace nasd::net {

/** DEC Alpha 3000/400 (133 MHz): the prototype NASD drive's CPU. */
inline CpuParams
alpha3000_400()
{
    return CpuParams{133.0, 2.2};
}

/** DEC AlphaStation 255 (233 MHz): the client machines. */
inline CpuParams
alphaStation255()
{
    return CpuParams{233.0, 2.2};
}

/** DEC AlphaStation 500 (500 MHz): the comparison NFS server. */
inline CpuParams
alphaStation500()
{
    return CpuParams{500.0, 2.2};
}

/** The 200 MHz embedded core the paper projects into a drive ASIC. */
inline CpuParams
driveAsic200()
{
    return CpuParams{200.0, 2.2};
}

/** OC-3 ATM access link (155 Mb/s), the prototype's interconnect. */
inline LinkParams
oc3Link()
{
    return LinkParams{155.0, sim::usec(50)};
}

/** Fast Ethernet (100 Mb/s). */
inline LinkParams
fastEthernetLink()
{
    return LinkParams{100.0, sim::usec(60)};
}

/** 10 Mb/s Ethernet (the Active Disks experiment's network). */
inline LinkParams
tenMbitEthernetLink()
{
    return LinkParams{10.0, sim::usec(100)};
}

/** Gigabit Ethernet (the cost model's high-end NIC). */
inline LinkParams
gigabitLink()
{
    return LinkParams{1000.0, sim::usec(20)};
}

/** A testbed client: an AlphaStation 255 on OC-3 with DCE RPC costs. */
inline NetNode &
addClientNode(Network &net, std::string name)
{
    return net.addNode(std::move(name), alphaStation255(), oc3Link(),
                       dceRpcCosts());
}

/** A testbed manager or server: an AlphaStation 500 on OC-3 with DCE
 *  RPC costs. */
inline NetNode &
addServerNode(Network &net, std::string name)
{
    return net.addNode(std::move(name), alphaStation500(), oc3Link(),
                       dceRpcCosts());
}

} // namespace nasd::net

#endif // NASD_NET_PRESETS_H_
