#include "topo/convergence.hh"

#include <algorithm>
#include <sstream>

#include "net/logging.hh"
#include "stats/json.hh"
#include "stats/report.hh"

namespace bgpbench::topo
{

namespace
{

/**
 * An AS path as the tokens AsPath::toString() joins with spaces: one
 * per AS of a sequence and one per set, holding its members in order.
 * A sequence split over two segments thus reads as the unsplit one,
 * and a set never as a sequence. (An empty sequence segment, which
 * the decoder rejects, yields no token.)
 */
class PathTokens
{
  public:
    explicit PathTokens(const bgp::AsPath &path)
        : segments_(path.segments())
    {
        skipEmptySequences();
    }

    bool done() const { return segment_ == segments_.size(); }
    /** True if the current token is a whole AS_SET. */
    bool
    isSet() const
    {
        return segments_[segment_].type ==
               bgp::AsPath::SegmentType::AsSet;
    }
    /** The current set's members (isSet() only). */
    const std::vector<bgp::AsNumber> &
    members() const
    {
        return segments_[segment_].asns;
    }
    /** The current sequence AS (!isSet() only). */
    bgp::AsNumber as() const { return segments_[segment_].asns[as_]; }

    void
    next()
    {
        if (isSet() || ++as_ == segments_[segment_].asns.size()) {
            ++segment_;
            as_ = 0;
            skipEmptySequences();
        }
    }

  private:
    void
    skipEmptySequences()
    {
        while (!done() && !isSet() && segments_[segment_].asns.empty())
            ++segment_;
    }

    const std::vector<bgp::AsPath::Segment> &segments_;
    size_t segment_ = 0;
    size_t as_ = 0;
};

/** FNV-1a over the path's tokens, tagged so a set differs from a run. */
uint64_t
pathHash(const bgp::AsPath &path)
{
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (PathTokens token(path); !token.done(); token.next()) {
        if (token.isSet()) {
            mix(uint64_t(1) << 32 | token.members().size());
            for (bgp::AsNumber asn : token.members())
                mix(asn);
        } else {
            mix(token.as());
        }
    }
    return h;
}

} // namespace

void
ConvergenceTracker::markPhaseStart(sim::SimTime now)
{
    phaseStart_ = now;
    lastActivity_ = now;
    phaseUpdatesBase_ = updatesDelivered_;
    phaseTransactionsBase_ = transactionsDelivered_;
}

void
ConvergenceTracker::onUpdateDelivered(size_t node,
                                      const bgp::UpdateMessage &msg,
                                      sim::SimTime now)
{
    ++updatesDelivered_;
    transactionsDelivered_ += msg.transactionCount();
    lastActivity_ = std::max(lastActivity_, now);
    if (!msg.attributes)
        return;
    uint64_t hash = pathHash(msg.attributes->asPath);
    for (const net::Prefix &prefix : msg.nlri)
        addOffer(explored_[exploredKey(node, prefix)], hash);
}

uint64_t
ConvergenceTracker::exploredKey(size_t node, const net::Prefix &prefix)
{
    panicIf(node >= size_t(1) << 24,
            "convergence tracker: node index exceeds 24 bits");
    return uint64_t(node) << 40 |
           uint64_t(prefix.address().toUint32()) << 8 |
           uint64_t(prefix.length());
}

void
ConvergenceTracker::addOffer(std::vector<uint64_t> &offers,
                             uint64_t hash)
{
    if (std::find(offers.begin(), offers.end(), hash) == offers.end())
        offers.push_back(hash);
}

void
ConvergenceTracker::onSessionChange(size_t node, sim::SimTime now)
{
    (void)node;
    lastActivity_ = std::max(lastActivity_, now);
}

void
ConvergenceTracker::absorb(ConvergenceTracker &shard)
{
    updatesDelivered_ += shard.updatesDelivered_;
    transactionsDelivered_ += shard.transactionsDelivered_;
    droppedSegments_ += shard.droppedSegments_;
    lastActivity_ = std::max(lastActivity_, shard.lastActivity_);
    // merge() moves every entry whose key is new here; the ones left
    // behind are keys both trackers hold.
    explored_.merge(shard.explored_);
    for (const auto &[key, offers] : shard.explored_) {
        std::vector<uint64_t> &into = explored_.find(key)->second;
        for (uint64_t hash : offers)
            addOffer(into, hash);
    }
    shard = ConvergenceTracker();
}

double
ConvergenceTracker::convergenceTimeSec() const
{
    if (lastActivity_ <= phaseStart_)
        return 0.0;
    return sim::toSeconds(lastActivity_ - phaseStart_);
}

size_t
ConvergenceTracker::distinctPathsExplored(
    size_t node, const net::Prefix &prefix) const
{
    auto it = explored_.find(exploredKey(node, prefix));
    return it == explored_.end() ? 0 : it->second.size();
}

size_t
ConvergenceTracker::maxPathsExplored() const
{
    size_t max = 0;
    for (const auto &[key, offers] : explored_)
        max = std::max(max, offers.size());
    return max;
}

double
ConvergenceTracker::meanPathsExplored() const
{
    if (explored_.empty())
        return 0.0;
    size_t total = 0;
    for (const auto &[key, offers] : explored_)
        total += offers.size();
    return double(total) / double(explored_.size());
}

std::string
ConvergenceReport::toJson() const
{
    std::ostringstream os;
    stats::JsonWriter json(os);
    writeJson(json);
    return os.str();
}

void
ConvergenceReport::writeJson(stats::JsonWriter &json) const
{
    json.beginObject();
    json.field("benchmark", "topo_convergence");
    json.field("scenario", scenario);
    json.field("shape", shape);
    json.field("nodes", nodes);
    json.field("links", links);
    json.field("converged", converged);
    json.field("convergence_time_s", convergenceTimeSec);
    json.field("total_updates", totalUpdates);
    json.field("total_transactions", totalTransactions);
    json.field("dropped_segments", droppedSegments);
    json.field("path_exploration_max", pathExplorationMax);
    json.field("path_exploration_mean", pathExplorationMean);
    json.key("routers");
    json.beginArray();
    for (const RouterReport &router : routers) {
        json.beginObject();
        json.field("name", router.name);
        json.field("updates_received", router.updatesReceived);
        json.field("updates_sent", router.updatesSent);
        json.field("transactions", router.transactions);
        json.field("tps", router.tps);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

void
ConvergenceReport::printText(std::ostream &os) const
{
    os << scenario << " on " << shape << " (" << nodes << " routers, "
       << links << " links): "
       << (converged ? "converged" : "DID NOT CONVERGE") << " in "
       << stats::formatDouble(convergenceTimeSec * 1e3, 3) << " ms, "
       << totalUpdates << " UPDATEs / " << totalTransactions
       << " transactions exchanged";
    if (droppedSegments > 0)
        os << ", " << droppedSegments << " segments lost";
    os << "\n  path exploration: max " << pathExplorationMax
       << ", mean " << stats::formatDouble(pathExplorationMean, 2)
       << " distinct AS paths per (router, prefix)\n";

    stats::TextTable table(
        {"router", "updates rx", "updates tx", "transactions",
         "tps"});
    for (const RouterReport &router : routers) {
        table.addRow({router.name,
                      std::to_string(router.updatesReceived),
                      std::to_string(router.updatesSent),
                      std::to_string(router.transactions),
                      stats::formatDouble(router.tps, 1)});
    }
    table.print(os);
}

void
ConvergenceReport::printCsv(std::ostream &os, bool header) const
{
    if (header) {
        os << "scenario,shape,nodes,links,converged,"
              "convergence_time_s,total_updates,total_transactions,"
              "router,router_transactions,router_tps\n";
    }
    for (const RouterReport &router : routers) {
        os << scenario << ',' << shape << ',' << nodes << ',' << links
           << ',' << (converged ? 1 : 0) << ','
           << stats::formatDouble(convergenceTimeSec, 6) << ','
           << totalUpdates << ',' << totalTransactions << ','
           << router.name << ',' << router.transactions << ','
           << stats::formatDouble(router.tps, 1) << "\n";
    }
}

void
printLocRib(std::ostream &os, const bgp::BgpSpeaker &speaker,
            const std::string &label)
{
    os << "\nLoc-RIB of " << label << " (AS"
       << speaker.config().localAs << "):\n";
    stats::TextTable table({"prefix", "AS path", "next hop"});
    std::vector<std::pair<net::Prefix, const bgp::LocRib::Entry *>>
        rows;
    speaker.locRib().forEach(
        [&](const net::Prefix &p, const bgp::LocRib::Entry &e) {
            rows.emplace_back(p, &e);
        });
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (const auto &[prefix, entry] : rows) {
        table.addRow({prefix.toString(),
                      entry->best.attributes->asPath.toString(),
                      entry->best.attributes->nextHop.toString()});
    }
    table.print(os);
}

} // namespace bgpbench::topo
