/**
 * @file
 * google-benchmark micro-benchmarks of the protocol hot paths the
 * cost model charges for: message encode/decode, the decision
 * process, LPM lookup, FIB update, and the Internet checksum.
 *
 * These measure the *host* implementation (useful for regression
 * tracking of this library); the simulated routers charge calibrated
 * virtual costs instead.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bgp/decision.hh"
#include "bgp/message.hh"
#include "bgp/policy.hh"
#include "bgp/speaker.hh"
#include "bgp/update_builder.hh"
#include "fib/forwarding_engine.hh"
#include "net/checksum.hh"
#include "net/prefix_tree.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "stats/report.hh"
#include "topo/steal_deque.hh"
#include "workload/route_set.hh"
#include "workload/update_stream.hh"

using namespace bgpbench;

namespace
{

std::vector<workload::RouteSpec>
routes(size_t count)
{
    workload::RouteSetConfig config;
    config.count = count;
    return generateRouteSet(config);
}

workload::StreamConfig
streamConfig(size_t per_packet)
{
    workload::StreamConfig c;
    c.speakerAs = 65001;
    c.nextHop = net::Ipv4Address(10, 0, 1, 2);
    c.prefixesPerPacket = per_packet;
    return c;
}

void
BM_EncodeUpdate(benchmark::State &state)
{
    auto rs = routes(size_t(state.range(0)));
    bgp::UpdateBuilder builder;
    bgp::PathAttributes attrs;
    attrs.asPath = bgp::AsPath::sequence({65001, 100});
    attrs.nextHop = net::Ipv4Address(10, 0, 1, 2);
    auto shared = bgp::makeAttributes(std::move(attrs));
    for (const auto &r : rs)
        builder.announce(r.prefix, shared);
    auto updates = builder.build();

    for (auto _ : state) {
        for (const auto &update : updates)
            benchmark::DoNotOptimize(bgp::encodeMessage(update));
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_EncodeUpdate)->Arg(1)->Arg(100)->Arg(500);

void
BM_DecodeUpdate(benchmark::State &state)
{
    auto packets = buildAnnouncementStream(
        routes(size_t(state.range(0))),
        streamConfig(size_t(state.range(0))));

    for (auto _ : state) {
        for (const auto &pkt : packets) {
            bgp::DecodeError error;
            benchmark::DoNotOptimize(
                bgp::decodeMessage(pkt.wire->bytes(), error));
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_DecodeUpdate)->Arg(1)->Arg(100)->Arg(500);

void
BM_EncodeSegmentPooled(benchmark::State &state)
{
    // Encode into pooled segments and release them immediately, so
    // steady state recycles one buffer per message (the transmit
    // path's allocation profile).
    auto rs = routes(size_t(state.range(0)));
    bgp::UpdateBuilder builder;
    bgp::PathAttributes attrs;
    attrs.asPath = bgp::AsPath::sequence({65001, 100});
    attrs.nextHop = net::Ipv4Address(10, 0, 1, 2);
    auto shared = bgp::makeAttributes(std::move(attrs));
    for (const auto &r : rs)
        builder.announce(r.prefix, shared);
    auto updates = builder.build();

    for (auto _ : state) {
        for (const auto &update : updates)
            benchmark::DoNotOptimize(bgp::encodeSegment(update));
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_EncodeSegmentPooled)->Arg(1)->Arg(100)->Arg(500);

void
BM_FanoutSharedSegment(benchmark::State &state)
{
    // One 500-prefix UPDATE delivered to K stream decoders: encode
    // once, every decoder borrows the segment.
    size_t fanout = size_t(state.range(0));
    auto packets = buildAnnouncementStream(routes(500),
                                           streamConfig(500));
    std::vector<bgp::StreamDecoder> decoders(fanout);

    for (auto _ : state) {
        for (const auto &pkt : packets) {
            bgp::DecodeError error;
            for (auto &decoder : decoders) {
                decoder.feed(pkt.wire);
                while (decoder.next(error)) {
                }
            }
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(fanout) * 500);
}
BENCHMARK(BM_FanoutSharedSegment)->Arg(2)->Arg(8)->Arg(16);

void
BM_FanoutCopyPerHop(benchmark::State &state)
{
    // The copy-per-hop baseline: re-encode per peer and stage a copy
    // of the bytes in every decoder.
    size_t fanout = size_t(state.range(0));
    auto rs = routes(500);
    bgp::UpdateBuilder builder;
    bgp::PathAttributes attrs;
    attrs.asPath = bgp::AsPath::sequence({65001, 100});
    attrs.nextHop = net::Ipv4Address(10, 0, 1, 2);
    auto shared = bgp::makeAttributes(std::move(attrs));
    for (const auto &r : rs)
        builder.announce(r.prefix, shared);
    auto updates = builder.build();
    std::vector<bgp::StreamDecoder> decoders(fanout);

    for (auto _ : state) {
        for (const auto &update : updates) {
            bgp::DecodeError error;
            for (auto &decoder : decoders) {
                decoder.feed(bgp::encodeMessage(update));
                while (decoder.next(error)) {
                }
            }
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(fanout) * 500);
}
BENCHMARK(BM_FanoutCopyPerHop)->Arg(2)->Arg(8)->Arg(16);

void
BM_DecisionProcess(benchmark::State &state)
{
    std::vector<bgp::Candidate> candidates;
    for (uint32_t i = 0; i < uint32_t(state.range(0)); ++i) {
        bgp::PathAttributes attrs;
        attrs.asPath = bgp::AsPath::sequence(
            {bgp::AsNumber(100 + i), bgp::AsNumber(200 + i)});
        attrs.nextHop = net::Ipv4Address(10, 0, 0, uint8_t(i + 1));
        candidates.push_back(bgp::Candidate{
            bgp::makeAttributes(std::move(attrs)), i, 10 + i, true});
    }

    for (auto _ : state)
        benchmark::DoNotOptimize(bgp::selectBest(candidates));
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_DecisionProcess)->Arg(2)->Arg(8)->Arg(32);

void
BM_LpmLookup(benchmark::State &state)
{
    auto rs = routes(size_t(state.range(0)));
    fib::ForwardingTable table;
    for (const auto &r : rs) {
        table.install(r.prefix,
                      fib::FibEntry{net::Ipv4Address(10, 0, 0, 1), 1, {}});
    }
    auto pool = workload::destinationPool(rs, 1024, 7);

    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.lookup(pool[i++ & 1023]));
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_LpmLookup)->Arg(1000)->Arg(10000)->Arg(100000);

/*
 * RIB storage head-to-head: net::PrefixTree vs the per-RIB
 * unordered_map it replaced. Same route sets, same operation mix, one
 * BM pair per operation; the Scan pair is the structural one — the
 * tree walks in prefix order natively, a hash map must collect and
 * sort to produce the deterministic report order the RIBs guarantee.
 */

void
BM_PrefixTreeInsert(benchmark::State &state)
{
    auto rs = routes(size_t(state.range(0)));
    for (auto _ : state) {
        net::PrefixTree<uint32_t> tree;
        tree.reserve(rs.size());
        for (uint32_t i = 0; i < rs.size(); ++i)
            tree.insert(rs[i].prefix, i);
        benchmark::DoNotOptimize(tree.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_PrefixTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_HashMapInsert(benchmark::State &state)
{
    auto rs = routes(size_t(state.range(0)));
    for (auto _ : state) {
        std::unordered_map<net::Prefix, uint32_t> map;
        map.reserve(rs.size());
        for (uint32_t i = 0; i < rs.size(); ++i)
            map.insert_or_assign(rs[i].prefix, i);
        benchmark::DoNotOptimize(map.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_HashMapInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_PrefixTreeLookup(benchmark::State &state)
{
    auto rs = routes(size_t(state.range(0)));
    net::PrefixTree<uint32_t> tree;
    tree.reserve(rs.size());
    for (uint32_t i = 0; i < rs.size(); ++i)
        tree.insert(rs[i].prefix, i);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tree.find(rs[i++ % rs.size()].prefix));
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_PrefixTreeLookup)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_HashMapLookup(benchmark::State &state)
{
    auto rs = routes(size_t(state.range(0)));
    std::unordered_map<net::Prefix, uint32_t> map;
    map.reserve(rs.size());
    for (uint32_t i = 0; i < rs.size(); ++i)
        map.insert_or_assign(rs[i].prefix, i);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            map.find(rs[i++ % rs.size()].prefix));
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_HashMapLookup)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_PrefixTreeErase(benchmark::State &state)
{
    auto rs = routes(size_t(state.range(0)));
    for (auto _ : state) {
        state.PauseTiming();
        net::PrefixTree<uint32_t> tree;
        tree.reserve(rs.size());
        for (uint32_t i = 0; i < rs.size(); ++i)
            tree.insert(rs[i].prefix, i);
        state.ResumeTiming();
        for (const auto &r : rs)
            tree.erase(r.prefix);
        benchmark::DoNotOptimize(tree.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_PrefixTreeErase)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_HashMapErase(benchmark::State &state)
{
    auto rs = routes(size_t(state.range(0)));
    for (auto _ : state) {
        state.PauseTiming();
        std::unordered_map<net::Prefix, uint32_t> map;
        map.reserve(rs.size());
        for (uint32_t i = 0; i < rs.size(); ++i)
            map.insert_or_assign(rs[i].prefix, i);
        state.ResumeTiming();
        for (const auto &r : rs)
            map.erase(r.prefix);
        benchmark::DoNotOptimize(map.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_HashMapErase)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_PrefixTreeScan(benchmark::State &state)
{
    auto rs = routes(size_t(state.range(0)));
    net::PrefixTree<uint32_t> tree;
    tree.reserve(rs.size());
    for (uint32_t i = 0; i < rs.size(); ++i)
        tree.insert(rs[i].prefix, i);
    for (auto _ : state) {
        uint64_t sum = 0;
        tree.forEach([&](const net::Prefix &, uint32_t value) {
            sum += value;
        });
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_PrefixTreeScan)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_HashMapScan(benchmark::State &state)
{
    auto rs = routes(size_t(state.range(0)));
    std::unordered_map<net::Prefix, uint32_t> map;
    map.reserve(rs.size());
    for (uint32_t i = 0; i < rs.size(); ++i)
        map.insert_or_assign(rs[i].prefix, i);
    for (auto _ : state) {
        // Deterministic in-order scan from a hash map needs the
        // collect-and-sort detour.
        std::vector<const std::pair<const net::Prefix, uint32_t> *>
            rows;
        rows.reserve(map.size());
        for (const auto &entry : map)
            rows.push_back(&entry);
        std::sort(rows.begin(), rows.end(),
                  [](const auto *a, const auto *b) {
                      return a->first < b->first;
                  });
        uint64_t sum = 0;
        for (const auto *row : rows)
            sum += row->second;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_HashMapScan)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_FibInstallRemove(benchmark::State &state)
{
    auto rs = routes(size_t(state.range(0)));
    for (auto _ : state) {
        fib::ForwardingTable table;
        for (const auto &r : rs) {
            table.install(r.prefix,
                          fib::FibEntry{net::Ipv4Address(1, 1, 1, 1),
                                        1, {}});
        }
        for (const auto &r : rs)
            table.remove(r.prefix);
        benchmark::DoNotOptimize(table.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0) * 2);
}
BENCHMARK(BM_FibInstallRemove)->Arg(1000)->Arg(10000);

void
BM_ForwardPacket(benchmark::State &state)
{
    auto rs = routes(10000);
    fib::ForwardingTable table;
    for (const auto &r : rs) {
        table.install(r.prefix,
                      fib::FibEntry{net::Ipv4Address(10, 0, 0, 1), 1, {}});
    }
    fib::ForwardingEngine engine(&table);
    auto pool = workload::destinationPool(rs, 256, 3);

    size_t i = 0;
    for (auto _ : state) {
        auto pkt = net::makeDataPacket(net::Ipv4Address(9, 9, 9, 9),
                                       pool[i++ & 255], 1000);
        benchmark::DoNotOptimize(engine.process(pkt));
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_ForwardPacket);

bgp::PathAttributes
richAttributes()
{
    bgp::PathAttributes attrs;
    attrs.asPath =
        bgp::AsPath::sequence({65001, 100, 200, 300, 400, 500});
    attrs.nextHop = net::Ipv4Address(10, 0, 1, 2);
    attrs.med = 50;
    attrs.communities = {0x00640001, 0x00640002, 0x00c80001};
    return attrs;
}

/**
 * An attribute set as the interning benchmarks build it: arg 0 makes
 * a plain shared instance that never enters the interner (the
 * uninterned baseline), arg 1 goes through makeAttributes().
 */
bgp::PathAttributesPtr
attributesFor(const benchmark::State &state, bgp::PathAttributes attrs)
{
    if (state.range(0) == 0)
        return std::make_shared<const bgp::PathAttributes>(
            std::move(attrs));
    return bgp::makeAttributes(std::move(attrs));
}

/** Building a set without interning (arg 0) versus with it (arg 1). */
void
BM_AttributeIntern(benchmark::State &state)
{
    // Keep one canonical instance alive so the interning path
    // measures the steady-state hit, not repeated insert/expire churn.
    auto canonical = bgp::makeAttributes(richAttributes());

    for (auto _ : state)
        benchmark::DoNotOptimize(attributesFor(state, richAttributes()));
    state.SetItemsProcessed(int64_t(state.iterations()));
    benchmark::DoNotOptimize(canonical);
}
BENCHMARK(BM_AttributeIntern)->Arg(0)->Arg(1);

/**
 * sameAttributeValue() on two equal sets: deep comparison of distinct
 * instances (arg 0) versus the interned pointer fast path (arg 1).
 */
void
BM_AttributeEquality(benchmark::State &state)
{
    auto a = attributesFor(state, richAttributes());
    auto b = attributesFor(state, richAttributes());

    for (auto _ : state)
        benchmark::DoNotOptimize(bgp::sameAttributeValue(a, b));
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_AttributeEquality)->Arg(0)->Arg(1);

/**
 * UpdateBuilder grouping: announce 500 prefixes cycling through 8
 * attribute sets, then build. Uninterned sets (arg 0) exercise the
 * hash-plus-deep-equality group lookup; interned ones (arg 1) the
 * pointer path.
 */
void
BM_UpdateBuilderGroup(benchmark::State &state)
{
    auto rs = routes(500);
    std::vector<bgp::PathAttributesPtr> sets;
    for (uint32_t i = 0; i < 8; ++i) {
        bgp::PathAttributes attrs = richAttributes();
        attrs.med = 100 + i;
        sets.push_back(attributesFor(state, std::move(attrs)));
    }

    for (auto _ : state) {
        bgp::UpdateBuilder builder;
        for (size_t i = 0; i < rs.size(); ++i)
            builder.announce(rs[i].prefix, sets[i % sets.size()]);
        benchmark::DoNotOptimize(builder.build());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 500);
}
BENCHMARK(BM_UpdateBuilderGroup)->Arg(0)->Arg(1);

/**
 * Event-queue schedule + pop round trip: N one-shot events pushed
 * and drained. This is the per-event floor every simulated message
 * (transmit, arrive, deliver) pays three times.
 */
void
BM_SimulatorSchedulePop(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator simulator;
        for (int64_t i = 0; i < state.range(0); ++i)
            simulator.schedule(sim::SimTime(i), []() {});
        simulator.runUntilIdle();
        benchmark::DoNotOptimize(simulator.eventsExecuted());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_SimulatorSchedulePop)->Arg(1000)->Arg(10000);

/**
 * One periodic task firing N times. The recurring closure is stored
 * once and re-armed in place, so a firing costs a heap-free re-push —
 * this guards against regressing to re-wrapping the std::function
 * every recurrence.
 */
void
BM_SimulatorScheduleEvery(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator simulator;
        int64_t remaining = state.range(0);
        simulator.scheduleEvery(
            7, [&remaining]() { return --remaining > 0; });
        simulator.runUntilIdle();
        benchmark::DoNotOptimize(simulator.eventsExecuted());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_SimulatorScheduleEvery)->Arg(1000)->Arg(100000);

void
BM_InternetChecksum(benchmark::State &state)
{
    std::vector<uint8_t> data(size_t(state.range(0)), 0xa5);
    for (auto _ : state)
        benchmark::DoNotOptimize(net::checksum(data));
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(20)->Arg(1500);

/**
 * A stand-in for the engine's CrossMessage with just the ordering
 * fields; the payload pointer is irrelevant to the sort/merge cost
 * being compared.
 */
struct FakeCross
{
    uint64_t time;
    uint64_t key;
};

std::vector<std::vector<FakeCross>>
crossBatches(size_t links, size_t per_link)
{
    // Per-link batches arrive (time, key)-sorted — one source node
    // feeds each link direction and its serialisation cursor is
    // monotone — with interleaved time ranges across links.
    std::vector<std::vector<FakeCross>> batches(links);
    uint64_t salt = 0x9e3779b97f4a7c15ull;
    for (size_t l = 0; l < links; ++l) {
        uint64_t t = 1000 + (l * salt >> 56);
        for (size_t m = 0; m < per_link; ++m) {
            t += 1 + ((l * per_link + m) * salt >> 60);
            batches[l].push_back(
                FakeCross{t, (uint64_t(l + 1) << 44) | (m + 1)});
        }
    }
    return batches;
}

/**
 * PR 3's barrier: concatenate every source's outbox, then one full
 * sort of the union — O(M log M) with M the total message count.
 */
void
BM_CrossDeliverConcatSort(benchmark::State &state)
{
    auto batches = crossBatches(size_t(state.range(0)), 256);
    std::vector<FakeCross> merged;
    for (auto _ : state) {
        merged.clear();
        for (const auto &batch : batches)
            merged.insert(merged.end(), batch.begin(), batch.end());
        std::sort(merged.begin(), merged.end(),
                  [](const FakeCross &a, const FakeCross &b) {
                      if (a.time != b.time)
                          return a.time < b.time;
                      return a.key < b.key;
                  });
        benchmark::DoNotOptimize(merged.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0) * 256);
}
BENCHMARK(BM_CrossDeliverConcatSort)->Arg(2)->Arg(8)->Arg(32);

/**
 * The batched barrier: per-link batches verified sorted (O(M) probe)
 * and pairwise-merged — O(M log k) with k the link count, and no
 * comparator calls at all when one link dominates.
 */
void
BM_CrossDeliverBatchMerge(benchmark::State &state)
{
    auto batches = crossBatches(size_t(state.range(0)), 256);
    auto less = [](const FakeCross &a, const FakeCross &b) {
        if (a.time != b.time)
            return a.time < b.time;
        return a.key < b.key;
    };
    std::vector<FakeCross> merged;
    std::vector<size_t> bounds, scratch;
    for (auto _ : state) {
        merged.clear();
        bounds.clear();
        for (auto &batch : batches) {
            if (!std::is_sorted(batch.begin(), batch.end(), less))
                std::sort(batch.begin(), batch.end(), less);
            bounds.push_back(merged.size());
            merged.insert(merged.end(), batch.begin(), batch.end());
        }
        bounds.push_back(merged.size());
        while (bounds.size() > 2) {
            scratch.clear();
            scratch.push_back(bounds.front());
            size_t r = 0;
            for (; r + 2 < bounds.size(); r += 2) {
                std::inplace_merge(
                    merged.begin() + ptrdiff_t(bounds[r]),
                    merged.begin() + ptrdiff_t(bounds[r + 1]),
                    merged.begin() + ptrdiff_t(bounds[r + 2]), less);
                scratch.push_back(bounds[r + 2]);
            }
            if (r + 1 < bounds.size())
                scratch.push_back(bounds[r + 1]);
            bounds.swap(scratch);
        }
        benchmark::DoNotOptimize(merged.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0) * 256);
}
BENCHMARK(BM_CrossDeliverBatchMerge)->Arg(2)->Arg(8)->Arg(32);

/** Owner-side cost of the shard-task deque: push + popFront. */
void
BM_StealDequePushPop(benchmark::State &state)
{
    topo::StealDeque deque;
    size_t tasks = size_t(state.range(0));
    uint32_t task = 0;
    for (auto _ : state) {
        for (uint32_t t = 0; t < tasks; ++t)
            deque.push(t);
        while (deque.popFront(task))
            benchmark::DoNotOptimize(task);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(tasks));
}
BENCHMARK(BM_StealDequePushPop)->Arg(16)->Arg(256);

/** Thief-side cost: popBack against a populated victim deque. */
void
BM_StealDequeSteal(benchmark::State &state)
{
    topo::StealDeque deque;
    size_t tasks = size_t(state.range(0));
    uint32_t task = 0;
    for (auto _ : state) {
        for (uint32_t t = 0; t < tasks; ++t)
            deque.push(t);
        while (deque.popBack(task))
            benchmark::DoNotOptimize(task);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(tasks));
}
BENCHMARK(BM_StealDequeSteal)->Arg(16)->Arg(256);

/**
 * A prefix-list whose entries cover disjoint /16 ranges; roughly one
 * entry in @p entries covers any generated route, so the linear scan
 * pays the full walk while the compiled trie touches only the
 * covering chain.
 */
bgp::PrefixList
benchPrefixList(size_t entries)
{
    bgp::PrefixList list("bench");
    for (size_t i = 0; i < entries; ++i) {
        list.add(uint32_t(5 * (i + 1)), i % 4 != 0,
                 net::Prefix(net::Ipv4Address(uint8_t(10 + i / 256),
                                              uint8_t(i % 256), 0, 0),
                             16),
                 std::nullopt, 24);
    }
    return list;
}

/** Compiled (trie) prefix-list evaluation over a generated table. */
void
BM_PrefixListTrie(benchmark::State &state)
{
    auto list = benchPrefixList(size_t(state.range(0)));
    auto rs = routes(4096);
    for (auto _ : state) {
        for (const auto &r : rs)
            benchmark::DoNotOptimize(list.evaluate(r.prefix));
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rs.size()));
}
BENCHMARK(BM_PrefixListTrie)->Arg(256)->Arg(1024);

/** The linear-scan oracle on the same list — the pre-trie cost. */
void
BM_PrefixListLinear(benchmark::State &state)
{
    auto list = benchPrefixList(size_t(state.range(0)));
    auto rs = routes(4096);
    for (auto _ : state) {
        for (const auto &r : rs)
            benchmark::DoNotOptimize(list.evaluateLinear(r.prefix));
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rs.size()));
}
BENCHMARK(BM_PrefixListLinear)->Arg(256)->Arg(1024);

/** Interned attribute bundles for @p rs (the speakers' steady state). */
std::vector<bgp::PathAttributesPtr>
internedTable(const std::vector<workload::RouteSpec> &rs)
{
    std::vector<bgp::PathAttributesPtr> table;
    table.reserve(rs.size());
    for (const auto &r : rs) {
        bgp::PathAttributes attrs;
        attrs.asPath = bgp::AsPath::sequence(r.basePath);
        attrs.nextHop = net::Ipv4Address(10, 0, 1, 2);
        attrs.localPref = 100;
        table.push_back(bgp::makeAttributes(std::move(attrs)));
    }
    return table;
}

/**
 * Full route-map walk: N never-matching entries ahead of a
 * permit-all, the policy_heavy bench's scan shape.
 */
void
BM_RouteMapEval(benchmark::State &state)
{
    size_t entries = size_t(state.range(0));
    bgp::RouteMap map("bench", bgp::RouteMap::NoMatch::Deny);
    for (size_t i = 0; i + 1 < entries; ++i) {
        bgp::RouteMapEntry entry;
        entry.seq = uint32_t(10 * (i + 1));
        entry.match.minAsPathLength = 24;
        map.add(std::move(entry));
    }
    bgp::RouteMapEntry accept_all;
    accept_all.seq = uint32_t(10 * entries);
    map.add(std::move(accept_all));

    auto rs = routes(1024);
    auto table = internedTable(rs);
    for (auto _ : state) {
        for (size_t i = 0; i < rs.size(); ++i) {
            benchmark::DoNotOptimize(
                map.apply(rs[i].prefix, table[i]));
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rs.size()));
}
BENCHMARK(BM_RouteMapEval)->Arg(16)->Arg(256);

/**
 * Copy-on-write fast path: a permit entry whose set-action is
 * already satisfied, so apply() returns the original interned
 * pointer without touching the interner.
 */
void
BM_PolicyCowHit(benchmark::State &state)
{
    bgp::RouteMap map("cow-hit", bgp::RouteMap::NoMatch::Deny);
    bgp::RouteMapEntry entry;
    entry.set.localPref = 100; // every bundle already has 100
    map.add(std::move(entry));

    auto rs = routes(1024);
    auto table = internedTable(rs);
    for (auto _ : state) {
        for (size_t i = 0; i < rs.size(); ++i) {
            benchmark::DoNotOptimize(
                map.apply(rs[i].prefix, table[i]));
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rs.size()));
}
BENCHMARK(BM_PolicyCowHit);

/**
 * The slow path the COW check avoids: a set-action that genuinely
 * changes every bundle, costing one copy + re-intern per route.
 */
void
BM_PolicyCowCopy(benchmark::State &state)
{
    bgp::RouteMap map("cow-copy", bgp::RouteMap::NoMatch::Deny);
    bgp::RouteMapEntry entry;
    entry.set.localPref = 250;
    map.add(std::move(entry));

    auto rs = routes(1024);
    auto table = internedTable(rs);
    for (auto _ : state) {
        for (size_t i = 0; i < rs.size(); ++i) {
            benchmark::DoNotOptimize(
                map.apply(rs[i].prefix, table[i]));
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rs.size()));
}
BENCHMARK(BM_PolicyCowCopy);

/**
 * What every accepted route would cost without the wouldChange()
 * check: unconditional deep copy + re-intern, even when nothing
 * changed. The gap to BM_PolicyCowHit is the COW win.
 */
void
BM_PolicyDeepCopyBaseline(benchmark::State &state)
{
    auto rs = routes(1024);
    auto table = internedTable(rs);
    for (auto _ : state) {
        for (size_t i = 0; i < rs.size(); ++i) {
            bgp::PathAttributes copy = *table[i];
            benchmark::DoNotOptimize(
                bgp::makeAttributes(std::move(copy)));
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rs.size()));
}
BENCHMARK(BM_PolicyDeepCopyBaseline);

} // namespace

/**
 * --obs-overhead-check: assert that a speaker whose observability is
 * bound but whose trace sink is detached stays within a small factor
 * of a completely unbound speaker on the UPDATE hot path. This is
 * the guarantee that lets the instrumentation stay compiled in.
 */
namespace
{

/** Wire-level OPEN/KEEPALIVE handshake for @p id. */
void
establishPeer(bgp::BgpSpeaker &speaker, bgp::PeerId id,
              bgp::AsNumber asn, bgp::RouterId router_id)
{
    speaker.startPeer(id, 0);
    speaker.tcpEstablished(id, 0);
    bgp::OpenMessage open;
    open.myAs = asn;
    open.bgpIdentifier = router_id;
    speaker.receiveBytes(id, bgp::encodeMessage(open), 0);
    speaker.receiveBytes(id,
                         bgp::encodeMessage(bgp::KeepaliveMessage{}),
                         0);
}

/**
 * Feed alternating attribute-change rounds into a fresh speaker (so
 * every round runs the full decision process, not the re-announce
 * suppression fast path); when @p bound, observability handles are
 * resolved but the tracer has no buffer attached (the production
 * default with --stats/--trace off).
 */
double
runObsMode(const std::vector<std::vector<uint8_t>> &wires_a,
           const std::vector<std::vector<uint8_t>> &wires_b,
           size_t rounds, bool bound)
{
    struct Sink : public bgp::SpeakerEvents
    {
        void onTransmit(bgp::PeerId, bgp::MessageType,
                        net::WireSegmentPtr, size_t) override
        {}
    } events;

    bgp::SpeakerConfig config;
    config.localAs = 65001;
    config.routerId = 1;
    config.localAddress = net::Ipv4Address(10, 0, 0, 1);
    bgp::BgpSpeaker speaker(config, &events);

    bgp::PeerConfig up;
    up.id = 0;
    up.asn = 65000;
    up.address = net::Ipv4Address(10, 0, 1, 2);
    speaker.addPeer(up);
    bgp::PeerConfig down;
    down.id = 1;
    down.asn = 65002;
    down.address = net::Ipv4Address(10, 1, 0, 2);
    speaker.addPeer(down);
    establishPeer(speaker, 0, 65000, 100);
    establishPeer(speaker, 1, 65002, 200);

    obs::MetricRegistry registry;
    obs::Tracer tracer; // deliberately never attached to a buffer
    if (bound)
        speaker.bindObservability(&registry, &tracer, 0);

    auto t0 = std::chrono::steady_clock::now();
    for (size_t r = 0; r < rounds; ++r) {
        for (const auto &wire : r % 2 == 0 ? wires_a : wires_b)
            speaker.receiveBytes(0, wire, 0);
    }
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

int
runObsOverheadCheck()
{
    constexpr size_t prefix_count = 8000;
    constexpr size_t per_packet = 100;
    constexpr size_t rounds = 256;
    constexpr int reps = 5;
    // The measured overhead with sinks detached is ~0% (the bound
    // mode regularly wins); the gate sits at 5% because best-of-5
    // wall-clock on a shared CI host carries ±3% noise, while any
    // real per-UPDATE cost (an atomic, a branch to a live sink)
    // shows up well above 10%.
    constexpr double tolerance = 1.05;

    auto rs = routes(prefix_count);
    auto encode = [&](size_t prepends) {
        workload::StreamConfig cfg = streamConfig(per_packet);
        cfg.extraPrepends = prepends;
        std::vector<std::vector<uint8_t>> wires;
        for (const auto &packet :
             workload::buildAnnouncementStream(rs, cfg)) {
            wires.emplace_back(packet.wire->data(),
                               packet.wire->data() +
                                   packet.wire->size());
        }
        return wires;
    };
    auto wires_a = encode(0);
    auto wires_b = encode(2);

    // Discarded warm-up (page cache, allocator, CPU clocks), then
    // alternate the mode order per rep and keep each mode's best so
    // neither side is systematically favoured.
    runObsMode(wires_a, wires_b, rounds / 4, false);
    runObsMode(wires_a, wires_b, rounds / 4, true);
    double best_unbound = 0.0, best_bound = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        bool bound_first = rep % 2 != 0;
        double first =
            runObsMode(wires_a, wires_b, rounds, bound_first);
        double second =
            runObsMode(wires_a, wires_b, rounds, !bound_first);
        double bound = bound_first ? first : second;
        double unbound = bound_first ? second : first;
        if (rep == 0 || unbound < best_unbound)
            best_unbound = unbound;
        if (rep == 0 || bound < best_bound)
            best_bound = bound;
    }

    double ratio =
        best_unbound > 0 ? best_bound / best_unbound : 1.0;
    std::cout << "obs overhead check: unbound "
              << stats::formatDouble(best_unbound * 1e3, 2)
              << " ms, bound (sinks detached) "
              << stats::formatDouble(best_bound * 1e3, 2) << " ms, "
              << "ratio " << stats::formatDouble(ratio, 4) << " (limit "
              << stats::formatDouble(tolerance, 2) << ")\n";
    if (ratio > tolerance) {
        std::cerr << "error: detached observability costs more than "
                  << stats::formatDouble((tolerance - 1.0) * 100.0, 0)
                  << "% on the UPDATE hot path\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--obs-overhead-check") == 0)
            return runObsOverheadCheck();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
