#include "topo/scenarios.hh"

#include "net/logging.hh"

namespace bgpbench::topo
{

net::Prefix
scenarioPrefix(size_t node, size_t index)
{
    if (index >= 156 || node >= 65536)
        fatal("scenario prefix space exhausted");
    return net::Prefix(net::Ipv4Address(uint8_t(100 + index),
                                        uint8_t(node >> 8),
                                        uint8_t(node & 0xff), 0),
                       24);
}

namespace demo
{

FourAsNetwork
fourAsPolicyTopology()
{
    FourAsNetwork net;
    net.customerPrefix = net::Prefix::fromString("192.0.2.0/24");
    net.backbonePrefix = net::Prefix::fromString("203.0.113.0/24");
    net.backboneSecondaryPrefix =
        net::Prefix::fromString("198.51.100.0/24");
    net.martianPrefix = net::Prefix::fromString("192.168.100.0/24");

    Topology &topo = net.topology;
    auto add_node = [&](const std::string &name, bgp::AsNumber asn,
                        uint8_t host) {
        NodeConfig node;
        node.name = name;
        node.asn = asn;
        node.routerId = bgp::RouterId(host);
        node.address = net::Ipv4Address(10, 0, host, 1);
        node.profile = router::xeonProfile();
        return topo.addNode(std::move(node));
    };
    net.customer = add_node("customer", 100, 1);
    net.ispA = add_node("isp-a", 200, 2);
    net.ispB = add_node("isp-b", 300, 3);
    net.backbone = add_node("backbone", 400, 4);

    bgp::Policy martian_filter = bgp::makeRejectPrefixPolicy(
        net::Prefix::fromString("192.168.0.0/16"));

    // customer -- isp-a: the preferred upstream (LOCAL_PREF 200).
    {
        Link link;
        link.a.node = net.customer;
        link.a.importPolicy = bgp::makeLocalPrefForAsPolicy(200, 200);
        link.b.node = net.ispA;
        net.customerIspALink = topo.addLink(std::move(link));
    }
    // customer -- isp-b: the backup upstream (default LOCAL_PREF).
    {
        Link link;
        link.a.node = net.customer;
        link.b.node = net.ispB;
        topo.addLink(std::move(link));
    }
    // isp-a -- backbone.
    {
        Link link;
        link.a.node = net.ispA;
        link.b.node = net.backbone;
        link.b.importPolicy = martian_filter;
        topo.addLink(std::move(link));
    }
    // isp-b -- backbone: isp-b makes itself a path of last resort by
    // prepending twice toward the backbone.
    {
        Link link;
        link.a.node = net.ispB;
        auto prepend =
            std::make_shared<bgp::RouteMap>("depref-toward-backbone");
        bgp::RouteMapEntry entry;
        entry.set.prependCount = 2;
        prepend->add(std::move(entry));
        link.a.exportPolicy = bgp::Policy(std::move(prepend));
        link.b.node = net.backbone;
        link.b.importPolicy = martian_filter;
        topo.addLink(std::move(link));
    }
    return net;
}

void
originateDemoRoutes(TopologySim &sim, const FourAsNetwork &net,
                    sim::SimTime at)
{
    sim.originate(net.backbone, net.backbonePrefix, at);
    sim.originate(net.backbone, net.backboneSecondaryPrefix, at);
    sim.originate(net.customer, net.customerPrefix, at);
    sim.originate(net.ispB, net.martianPrefix, at);
}

} // namespace demo

} // namespace bgpbench::topo
