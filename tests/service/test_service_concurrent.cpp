// Concurrency: many producer threads against one service.  Admission,
// window closes, outcome delivery and releases all run on the callers'
// threads under the service lock: N threads' interleaving is serialised into
// the journal, every accepted request's outcome is delivered exactly once,
// and replaying the journal reproduces the grants byte-for-byte.  TSan runs
// this file in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "cluster/cloud.h"
#include "service/journal.h"
#include "service/replay.h"
#include "service/service.h"
#include "workload/scenario.h"

namespace vcopt::service {
namespace {

using cluster::Cloud;
using cluster::Request;

Cloud scenario_cloud(const workload::SimScenario& s) {
  return Cloud(s.topology, s.catalog, s.capacity);
}

// Producers submit, take whatever outcomes are decided and release their
// leases, all at once.  Windows close on size inside whichever submit fills
// them, so an outcome may be taken by any thread; each accepted seq must
// still be taken exactly once, and every lease must come back.
TEST(ServiceConcurrent, ProducersTakeEachOutcomeExactlyOnceAndReleaseAll) {
  const auto scenario = workload::paper_sim_scenario(11);
  Cloud cloud = scenario_cloud(scenario);
  ServiceOptions options;
  options.max_batch = 4;
  options.queue_capacity = 1024;
  PlacementService svc(cloud, options);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 8;
  std::vector<std::vector<std::uint64_t>> accepted(kProducers);
  std::vector<std::vector<std::uint64_t>> taken(kProducers + 1);
  std::atomic<int> with_lease{0};
  const auto take_and_release = [&](std::vector<std::uint64_t>& seqs) {
    for (const Outcome& o : svc.take_outcomes()) {
      seqs.push_back(o.seq);
      if (has_lease(o.kind)) {
        with_lease.fetch_add(1);
        svc.release(o.lease);
      }
    }
  };
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto& r =
            scenario.requests[static_cast<std::size_t>(p * kPerProducer + i) %
                              scenario.requests.size()];
        const SubmitReceipt receipt = svc.submit(
            Request(r.counts(), static_cast<std::uint64_t>(p * 100 + i)));
        ASSERT_EQ(receipt.admission, AdmissionStatus::kAccepted);
        accepted[p].push_back(receipt.seq);
        take_and_release(taken[p]);
      }
    });
  }
  for (auto& t : producers) t.join();
  svc.stop();
  take_and_release(taken[kProducers]);

  std::vector<std::uint64_t> all_accepted, all_taken;
  for (const auto& v : accepted) {
    all_accepted.insert(all_accepted.end(), v.begin(), v.end());
  }
  for (const auto& v : taken) {
    all_taken.insert(all_taken.end(), v.begin(), v.end());
  }
  std::sort(all_accepted.begin(), all_accepted.end());
  std::sort(all_taken.begin(), all_taken.end());
  ASSERT_EQ(all_accepted.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  EXPECT_EQ(all_taken, all_accepted);
  EXPECT_GT(with_lease.load(), 0);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.accepted, all_accepted.size());
  EXPECT_EQ(stats.decided, stats.accepted);
  // Everything that was granted was also released.
  EXPECT_EQ(cloud.lease_count(), 0u);
  EXPECT_EQ(cloud.remaining().total(), scenario.capacity.total());
}

TEST(ServiceConcurrent, BackpressureNeverLosesRequests) {
  const auto scenario = workload::paper_sim_scenario(5);
  Cloud cloud = scenario_cloud(scenario);
  ServiceOptions options;
  options.max_batch = 8;       // above the queue bound: no window closes on
  options.queue_capacity = 4;  // size, so a tiny queue fills under load
  PlacementService svc(cloud, options);

  const auto request = [&](std::size_t i, std::uint64_t id) {
    return Request(scenario.requests[i % scenario.requests.size()].counts(),
                   id);
  };
  // The queue is full before the producers start, so backpressure is
  // certain to be exercised.
  int accepted = 0;
  int pushed_back = 0;
  for (std::size_t i = 0; i < options.queue_capacity; ++i) {
    ASSERT_EQ(svc.submit(request(i, 5000 + i)).admission,
              AdmissionStatus::kAccepted);
    ++accepted;
  }
  ASSERT_EQ(svc.submit(request(0, 5999)).admission,
            AdmissionStatus::kQueueFull);
  ++pushed_back;

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 32;
  std::atomic<int> producer_accepted{0};
  std::atomic<int> producer_pushed_back{0};
  std::atomic<int> running{kProducers};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto receipt =
            svc.submit(request(static_cast<std::size_t>(i),
                               static_cast<std::uint64_t>(p * 1000 + i)));
        if (receipt.admission == AdmissionStatus::kAccepted) {
          producer_accepted.fetch_add(1);
        } else {
          EXPECT_EQ(receipt.admission, AdmissionStatus::kQueueFull);
          producer_pushed_back.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }
  // This thread drains: a flush decides the queue once it is full.
  while (running.load() > 0) {
    if (svc.queue_depth() >= options.queue_capacity) {
      svc.flush();
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  svc.stop();
  accepted += producer_accepted.load();
  pushed_back += producer_pushed_back.load();
  EXPECT_EQ(accepted + pushed_back,
            static_cast<int>(options.queue_capacity) + 1 +
                kProducers * kPerProducer);
  // Accounting is exact: accepted == decided (stop() reconciles via
  // VCOPT_VALIDATE), and every submit got a verdict.
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(accepted));
  EXPECT_EQ(stats.queue_full, static_cast<std::uint64_t>(pushed_back));
  EXPECT_EQ(stats.decided, stats.accepted);
  EXPECT_EQ(svc.take_outcomes().size(), static_cast<std::size_t>(accepted));
}

// The tentpole acceptance test: N producer threads submit a seeded stream
// into a virtual-time journaling service; whatever interleaving the threads
// happened to produce, replaying the journal on a fresh cloud reproduces
// the grant records byte-identically (and therefore the same DC totals).
TEST(ServiceConcurrent, VirtualTimeJournalReplaysByteIdentically) {
  const auto scenario = workload::paper_sim_scenario(21);
  Cloud cloud = scenario_cloud(scenario);
  std::ostringstream journal;
  ServiceOptions options;
  options.max_batch = 4;
  options.queue_capacity = 1024;
  options.journal = &journal;
  PlacementService svc(cloud, options);

  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < scenario.requests.size(); ++i) {
        const auto& r = scenario.requests[i];
        svc.submit(Request(r.counts(),
                           static_cast<std::uint64_t>(p) * 1000 + i));
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  svc.stop();

  std::vector<Outcome> outcomes = svc.take_outcomes();
  EXPECT_EQ(outcomes.size(), kProducers * scenario.requests.size());
  double live_dc = 0;
  for (const Outcome& o : outcomes) {
    if (has_lease(o.kind)) live_dc += o.distance;
  }
  const std::string live_grants = grant_stream(std::move(outcomes));

  Cloud fresh = scenario_cloud(scenario);
  std::istringstream in(journal.str());
  const ReplayResult replayed =
      replay_journal(parse_journal(in), fresh, options);
  EXPECT_EQ(replayed.grants, live_grants);
  EXPECT_DOUBLE_EQ(replayed.total_distance, live_dc);
  EXPECT_EQ(fresh.remaining(), cloud.remaining());
  EXPECT_EQ(fresh.lease_count(), cloud.lease_count());
}

}  // namespace
}  // namespace vcopt::service
