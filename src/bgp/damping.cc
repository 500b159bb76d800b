#include "bgp/damping.hh"

#include <cmath>

namespace bgpbench::bgp
{

double
FlapDamper::decayedPenalty(const History &history, TimeNs now) const
{
    if (now <= history.anchor)
        return history.penalty;
    // exp2 keeps half-life arithmetic exact at the boundaries that
    // matter for the benchmark: exp2(-1.0) == 0.5, so the penalty
    // halves exactly once per half-life of simulated nanoseconds.
    double half_lives = double(now - history.anchor) / halfLifeNs_;
    return history.penalty * std::exp2(-half_lives);
}

bool
FlapDamper::effectivelySuppressed(const History &history,
                                  TimeNs now) const
{
    return history.suppressed &&
           decayedPenalty(history, now) >= reuseThreshold;
}

bool
FlapDamper::addPenalty(PeerId peer, const net::Prefix &prefix,
                       double penalty, TimeNs now)
{
    auto &history = histories_[Key{peer, prefix}];
    history.penalty =
        std::min(decayedPenalty(history, now) + penalty, maxPenalty);
    history.anchor = now;
    if (history.penalty >= suppressThreshold && !history.suppressed) {
        history.suppressed = true;
        ++suppressTransitions_;
    }
    return effectivelySuppressed(history, now);
}

bool
FlapDamper::onWithdraw(PeerId peer, const net::Prefix &prefix,
                       TimeNs now)
{
    if (!config_.enabled)
        return false;
    return addPenalty(peer, prefix, withdrawPenalty, now);
}

bool
FlapDamper::onAnnounce(PeerId peer, const net::Prefix &prefix,
                       TimeNs now)
{
    if (!config_.enabled)
        return false;

    // First sighting: announcements of fresh routes carry no penalty
    // (RFC 2439 section 4.4.2).
    if (histories_.find(Key{peer, prefix}) == histories_.end())
        return false;
    return addPenalty(peer, prefix, reAnnouncePenalty, now);
}

bool
FlapDamper::isSuppressed(PeerId peer, const net::Prefix &prefix,
                         TimeNs now) const
{
    if (!config_.enabled)
        return false;
    auto it = histories_.find(Key{peer, prefix});
    if (it == histories_.end())
        return false;
    return effectivelySuppressed(it->second, now);
}

double
FlapDamper::penalty(PeerId peer, const net::Prefix &prefix,
                    TimeNs now) const
{
    auto it = histories_.find(Key{peer, prefix});
    if (it == histories_.end())
        return 0.0;
    return decayedPenalty(it->second, now);
}

std::vector<std::pair<PeerId, net::Prefix>>
FlapDamper::takeReusable(TimeNs now)
{
    std::vector<std::pair<PeerId, net::Prefix>> reusable;
    for (auto it = histories_.begin(); it != histories_.end();) {
        History &history = it->second;
        double decayed = decayedPenalty(history, now);
        if (history.suppressed && decayed < reuseThreshold) {
            history.suppressed = false;
            ++reuseTransitions_;
            reusable.emplace_back(it->first.peer, it->first.prefix);
        }

        // Garbage-collect histories that have decayed to noise.
        if (!history.suppressed && decayed < reuseThreshold / 8.0) {
            it = histories_.erase(it);
        } else {
            ++it;
        }
    }
    return reusable;
}

FlapDamper::TimeNs
FlapDamper::nextReuseTime(TimeNs now) const
{
    TimeNs earliest = 0;
    for (const auto &[key, history] : histories_) {
        if (!history.suppressed)
            continue;
        TimeNs at = now + 1;
        if (history.penalty > reuseThreshold) {
            // Half-lives until the anchored penalty reaches the
            // reuse threshold; ceil to whole ns so the wakeup lands
            // at-or-after the exact crossing.
            double half_lives =
                std::log2(history.penalty / reuseThreshold);
            double delay_ns = std::ceil(half_lives * halfLifeNs_);
            TimeNs cross = history.anchor + TimeNs(delay_ns);
            at = std::max(cross, now + 1);
        }
        if (earliest == 0 || at < earliest)
            earliest = at;
    }
    return earliest;
}

size_t
FlapDamper::suppressedCount(TimeNs now) const
{
    size_t count = 0;
    for (const auto &[key, history] : histories_)
        count += effectivelySuppressed(history, now);
    return count;
}

} // namespace bgpbench::bgp
