/**
 * @file
 * Route flap damping (RFC 2439).
 *
 * The paper motivates BGP benchmarking with routing instability
 * (section II, ref. [5]): routers continuously process updates, and
 * unstable routes multiply that load. Flap damping is the classic
 * defence: each flap adds a penalty that decays exponentially; a
 * route whose penalty exceeds the suppress threshold is ignored until
 * it decays below the reuse threshold.
 *
 * Decay is anchor-based: each history stores the penalty value at the
 * simulated time it was last *charged* and every read computes
 * penalty * 2^(-(now - anchor) / halfLife) from that fixed anchor.
 * Reads never rebase the anchor, so the observed trajectory is a pure
 * function of the flap times — querying a history more or less often
 * (as parallel shard layouts do) cannot perturb the floating-point
 * path or shift a suppress/reuse boundary.
 *
 * Only the switch and the half-life are settable: the router runs
 * 900 s, the topology stability scenarios 2 s. Penalties and
 * thresholds are FlapDamper constants at common vendor defaults, and
 * an attribute change costs the same as a re-announcement. An
 * announcement that leaves the stored route as it was costs nothing.
 */

#ifndef BGPBENCH_BGP_DAMPING_HH
#define BGPBENCH_BGP_DAMPING_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bgp/route.hh"
#include "net/prefix.hh"

namespace bgpbench::bgp
{

/** The settable RFC 2439 parameters. */
struct DampingConfig
{
    /** Master switch; damping is off unless enabled. */
    bool enabled = false;
    /** Exponential decay half-life in seconds. */
    double halfLifeSec = 900.0;
};

/**
 * Per-(peer, prefix) flap history with anchor-based exponential
 * decay. All reads are const and side-effect free; only recording a
 * flap (or harvesting reusable routes) mutates state.
 */
class FlapDamper
{
  public:
    using TimeNs = uint64_t;

    /** Penalty added per withdrawal. */
    static constexpr double withdrawPenalty = 1000.0;
    /**
     * Penalty added per announcement of a tracked route: a
     * re-announcement after a withdrawal and an attribute change
     * alike.
     */
    static constexpr double reAnnouncePenalty = 500.0;
    /** Penalty at or above which the route is suppressed. */
    static constexpr double suppressThreshold = 2000.0;
    /** Penalty below which a suppressed route is reused. */
    static constexpr double reuseThreshold = 750.0;
    /** Penalty ceiling (bounds maximum suppression time). */
    static constexpr double maxPenalty = 12000.0;

    explicit FlapDamper(DampingConfig config)
        : config_(config),
          halfLifeNs_(config.halfLifeSec * 1e9)
    {}

    const DampingConfig &config() const { return config_; }

    /**
     * Record a withdrawal flap.
     * @return True if the route is now suppressed.
     */
    bool onWithdraw(PeerId peer, const net::Prefix &prefix,
                    TimeNs now);

    /**
     * Record an announcement that changed the stored route (the
     * speaker does not report one that left it as it was). A route
     * with a flap history is charged reAnnouncePenalty; a fresh one
     * is not.
     *
     * @return True if the route is (still) suppressed and must not
     *         enter the decision process.
     */
    bool onAnnounce(PeerId peer, const net::Prefix &prefix, TimeNs now);

    /** Current suppression state (pure read; no decay rebase). */
    bool isSuppressed(PeerId peer, const net::Prefix &prefix,
                      TimeNs now) const;

    /** Current decayed penalty (0 when untracked). */
    double penalty(PeerId peer, const net::Prefix &prefix,
                   TimeNs now) const;

    /**
     * Collect routes whose suppression has lapsed since the last
     * call; the speaker re-runs the decision process for them. Also
     * garbage-collects negligible histories.
     */
    std::vector<std::pair<PeerId, net::Prefix>>
    takeReusable(TimeNs now);

    /**
     * Earliest simulated time at which any suppressed route could
     * cross the reuse threshold, or 0 when nothing is suppressed.
     * This is a scheduling hint (an upper bound rounded up to whole
     * ns, clamped to >= now + 1): the caller wakes up then and lets
     * takeReusable() decide by the exact predicate, re-arming if a
     * route needs marginally longer.
     */
    TimeNs nextReuseTime(TimeNs now) const;

    size_t trackedRoutes() const { return histories_.size(); }

    /** Number of currently suppressed routes (after decay). */
    size_t suppressedCount(TimeNs now) const;

    /** Total not-suppressed -> suppressed transitions recorded. */
    uint64_t suppressTransitions() const { return suppressTransitions_; }

    /** Total suppressed -> reusable transitions harvested. */
    uint64_t reuseTransitions() const { return reuseTransitions_; }

  private:
    struct Key
    {
        PeerId peer;
        net::Prefix prefix;

        bool
        operator==(const Key &other) const
        {
            return peer == other.peer && prefix == other.prefix;
        }
    };

    struct KeyHash
    {
        size_t
        operator()(const Key &key) const
        {
            size_t h = std::hash<net::Prefix>()(key.prefix);
            return h ^ (size_t(key.peer) * 0x9e3779b97f4a7c15ULL);
        }
    };

    struct History
    {
        /** Penalty value at @ref anchor (the last charge time). */
        double penalty = 0.0;
        /** Simulated time the penalty was last charged. */
        TimeNs anchor = 0;
        /**
         * Sticky suppression flag: set when the penalty crosses the
         * suppress threshold, cleared only by takeReusable() so each
         * suppression episode is harvested exactly once.
         */
        bool suppressed = false;
    };

    /** Penalty decayed from the anchor to @p now (pure). */
    double decayedPenalty(const History &history, TimeNs now) const;

    /** Effective suppression at @p now (flag and above reuse). */
    bool effectivelySuppressed(const History &history,
                               TimeNs now) const;

    /** Add a flap penalty and re-evaluate suppression. */
    bool addPenalty(PeerId peer, const net::Prefix &prefix,
                    double penalty, TimeNs now);

    DampingConfig config_;
    double halfLifeNs_;
    std::unordered_map<Key, History, KeyHash> histories_;
    uint64_t suppressTransitions_ = 0;
    uint64_t reuseTransitions_ = 0;
};

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_DAMPING_HH
