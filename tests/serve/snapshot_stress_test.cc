/**
 * @file
 * Concurrency stress test for epoch snapshot publication: one writer
 * churns routes and publishes epochs as fast as it can while reader
 * threads continuously acquire, verify, and query snapshots. Run
 * under ThreadSanitizer (cmake -DCMAKE_CXX_FLAGS=-fsanitize=thread)
 * this exercises the only cross-thread edge in the serve design —
 * the atomic shared_ptr swap in SnapshotPublisher.
 *
 * The assertions encode the published-state invariants:
 *  - every snapshot a reader acquires passes verifyChecksum(), i.e.
 *    no torn or half-built table is ever reachable through the
 *    pointer;
 *  - epochs observed by one reader never go backwards;
 *  - routes found by scan agree with bestPath on the same snapshot
 *    (internal consistency of the frozen index);
 *  - a snapshot held across many later publications stays valid and
 *    unchanged (RCU grace by refcount).
 */

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bgp/rib.hh"
#include "serve/publisher.hh"

using namespace bgpbench;
using namespace bgpbench::serve;

namespace
{

bgp::PathAttributesPtr
attrs(uint16_t origin_as)
{
    bgp::PathAttributes a;
    a.asPath = bgp::AsPath::sequence({origin_as});
    a.nextHop = net::Ipv4Address(10, 0, 0, 1);
    return bgp::makeAttributes(std::move(a));
}

net::Prefix
routePrefix(size_t i)
{
    return net::Prefix(
        net::Ipv4Address(10, uint8_t(i / 256), uint8_t(i % 256), 0), 24);
}

} // namespace

TEST(SnapshotStress, ReadersNeverSeeTornState)
{
    constexpr size_t kRoutes = 128;
    constexpr uint64_t kEpochs = 300;
    constexpr int kReaders = 4;

    SnapshotPublisher publisher;
    std::atomic<bool> done{false};
    std::atomic<uint64_t> failures{0};

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&publisher, &done, &failures] {
            uint64_t last_epoch = 0;
            RibSnapshotPtr pinned; // held across later publications
            uint64_t pinned_checksum = 0;
            while (!done.load(std::memory_order_acquire)) {
                RibSnapshotPtr snapshot = publisher.current();
                if (!snapshot->verifyChecksum())
                    failures.fetch_add(1);
                if (snapshot->epoch() < last_epoch)
                    failures.fetch_add(1);
                last_epoch = snapshot->epoch();

                // scan and bestPath must agree on one frozen table.
                snapshot->scan(
                    net::Prefix(net::Ipv4Address(10, 0, 0, 0), 8), 16,
                    [&snapshot, &failures](const SnapshotRoute &route) {
                        const SnapshotRoute *best =
                            snapshot->bestPath(route.prefix);
                        if (best == nullptr ||
                            best->peer != route.peer)
                            failures.fetch_add(1);
                    });

                // Pin an early snapshot and re-verify it forever
                // after: later publications must not disturb it.
                if (!pinned && snapshot->epoch() > 0) {
                    pinned = snapshot;
                    pinned_checksum = snapshot->checksum();
                }
                if (pinned &&
                    (pinned->checksum() != pinned_checksum ||
                     !pinned->verifyChecksum()))
                    failures.fetch_add(1);
            }
        });
    }

    // Writer: churn the table (install, replace, withdraw) and
    // publish an epoch per step, like a decision process flushing.
    bgp::SharedPrefixTable table;
    bgp::LocRib rib(table);
    for (uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
        size_t slot = size_t(epoch) % kRoutes;
        if (epoch % 3 == 0) {
            rib.removeAt(table.find(routePrefix(slot)));
        } else {
            bgp::Candidate candidate;
            candidate.attributes = attrs(uint16_t(epoch % 13 + 1));
            candidate.peer = bgp::PeerId(epoch % 5);
            rib.select(routePrefix(slot), candidate);
        }
        publisher.onRibPublish(rib, epoch, epoch * 1000);
    }
    done.store(true, std::memory_order_release);
    for (std::thread &reader : readers)
        reader.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(publisher.published(), kEpochs);
    EXPECT_EQ(publisher.current()->epoch(), kEpochs);
    EXPECT_TRUE(publisher.current()->verifyChecksum());
}
