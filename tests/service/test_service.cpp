// PlacementService, single-threaded virtual-time semantics: admission
// control (shed / queue-full / watermark), micro-batching window closes
// (size vs wait vs flush), queue-discipline window membership, outcome
// bookkeeping, the batch-vs-ladder decision split, and the Theorem-2
// batching gate (FIFO windows never raise mean DC).
#include "service/service.h"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <vector>

#include "cluster/cloud.h"
#include "gate_stream.h"
#include "obs/metrics.h"
#include "service/journal.h"

namespace vcopt::service {
namespace {

using cluster::Cloud;
using cluster::Request;
using cluster::Topology;

Cloud small_cloud() {
  return Cloud(Topology::uniform(2, 2),
               cluster::VmCatalog({{"m", 4, 2, 100, 64}}),
               util::IntMatrix(4, 1, 2));  // 8 VMs total
}

ServiceOptions virtual_options(std::size_t max_batch = 4,
                               double max_wait = 1.0) {
  ServiceOptions o;
  o.max_batch = max_batch;
  o.max_wait = max_wait;
  return o;
}

TEST(Service, RejectsBadOptions) {
  Cloud cloud = small_cloud();
  ServiceOptions zero_batch = virtual_options(0);
  EXPECT_THROW(PlacementService(cloud, zero_batch), std::invalid_argument);
  ServiceOptions bad_policy = virtual_options();
  bad_policy.policy = "no-such-policy";
  EXPECT_THROW(PlacementService(cloud, bad_policy), std::invalid_argument);
  ServiceOptions no_wait = virtual_options(4, 0);
  EXPECT_THROW(PlacementService(cloud, no_wait), std::invalid_argument);
}

TEST(Service, ShapeMismatchThrowsAtSubmit) {
  Cloud cloud = small_cloud();
  PlacementService svc(cloud, virtual_options());
  EXPECT_THROW(svc.submit(Request({1, 2})), std::invalid_argument);
}

TEST(Service, SizeTriggeredWindowClosesOnMaxBatch) {
  Cloud cloud = small_cloud();
  PlacementService svc(cloud, virtual_options(/*max_batch=*/2));
  EXPECT_EQ(svc.submit(Request({1}, 1)).admission, AdmissionStatus::kAccepted);
  EXPECT_EQ(svc.queue_depth(), 1u);
  EXPECT_EQ(svc.submit(Request({1}, 2)).admission, AdmissionStatus::kAccepted);
  // Second submit hit max_batch: the window closed inline.
  EXPECT_EQ(svc.queue_depth(), 0u);
  const auto outcomes = svc.take_outcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].kind, OutcomeKind::kGranted);
  EXPECT_EQ(outcomes[1].kind, OutcomeKind::kGranted);
  EXPECT_EQ(outcomes[0].window_id, outcomes[1].window_id);
  EXPECT_EQ(svc.stats().windows, 1u);
}

TEST(Service, WaitTriggeredWindowClosesAtExactExpiry) {
  Cloud cloud = small_cloud();
  PlacementService svc(cloud, virtual_options(/*max_batch=*/8, /*wait=*/1.0));
  svc.advance_to(0.5);
  ASSERT_EQ(svc.submit(Request({1}, 1)).seq, 1u);
  // Advancing short of 1.5 keeps the window open; past it closes at 1.5.
  svc.advance_to(1.49);
  EXPECT_EQ(svc.queue_depth(), 1u);
  svc.advance_to(10.0);
  EXPECT_EQ(svc.queue_depth(), 0u);
  const auto outcomes = svc.take_outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].decide_time, 1.5);
  EXPECT_EQ(svc.now(), 10.0);
}

TEST(Service, SingletonWindowGrantsViaLadder) {
  Cloud cloud = small_cloud();
  PlacementService svc(cloud, virtual_options());
  ASSERT_EQ(svc.submit(Request({3}, 7)).admission, AdmissionStatus::kAccepted);
  svc.flush();
  const auto outcomes = svc.take_outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  // The deterministic ladder's first rung is the heuristic -> kDegraded.
  EXPECT_EQ(outcomes[0].kind, OutcomeKind::kDegraded);
  EXPECT_EQ(outcomes[0].request_id, 7u);
  EXPECT_EQ(outcomes[0].granted_vms, 3);
  EXPECT_TRUE(cloud.has_lease(outcomes[0].lease));
}

TEST(Service, DeadOnArrivalDeadlineIsShed) {
  Cloud cloud = small_cloud();
  PlacementService svc(cloud, virtual_options());
  svc.advance_to(5.0);
  SubmitOptions late;
  late.deadline = 4.0;
  const auto receipt = svc.submit(Request({1}, 1), late);
  EXPECT_EQ(receipt.admission, AdmissionStatus::kShed);
  EXPECT_EQ(receipt.seq, 0u);
  EXPECT_EQ(svc.stats().shed, 1u);
  EXPECT_EQ(svc.queue_depth(), 0u);
}

TEST(Service, DeadlineExpiredInQueueIsShedAtWindowClose) {
  Cloud cloud = small_cloud();
  PlacementService svc(cloud, virtual_options(/*max_batch=*/8, /*wait=*/2.0));
  SubmitOptions tight;
  tight.deadline = 1.0;  // expires before the 2-second window close
  ASSERT_EQ(svc.submit(Request({1}, 1), tight).admission,
            AdmissionStatus::kAccepted);
  ASSERT_EQ(svc.submit(Request({1}, 2)).admission, AdmissionStatus::kAccepted);
  svc.advance_to(3.0);
  const auto outcomes = svc.take_outcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].kind, OutcomeKind::kShedDeadline);
  EXPECT_EQ(outcomes[0].granted_vms, 0);
  EXPECT_EQ(outcomes[1].kind, OutcomeKind::kDegraded);  // singleton ladder
  EXPECT_EQ(svc.stats().deadline_missed, 1u);
}

TEST(Service, QueueFullAppliesBackpressure) {
  Cloud cloud = small_cloud();
  ServiceOptions o = virtual_options(/*max_batch=*/64);
  o.queue_capacity = 2;  // batch-class submissions: never watermark-shed
  PlacementService svc(cloud, o);
  EXPECT_EQ(svc.submit(Request({1}, 1)).admission, AdmissionStatus::kAccepted);
  EXPECT_EQ(svc.submit(Request({1}, 2)).admission, AdmissionStatus::kAccepted);
  EXPECT_EQ(svc.submit(Request({1}, 3)).admission,
            AdmissionStatus::kQueueFull);
  EXPECT_EQ(svc.stats().queue_full, 1u);
  // Deciding the backlog reopens admission.
  svc.flush();
  EXPECT_EQ(svc.submit(Request({1}, 4)).admission, AdmissionStatus::kAccepted);
}

TEST(Service, BestEffortShedAboveWatermark) {
  Cloud cloud = small_cloud();
  ServiceOptions o = virtual_options(/*max_batch=*/64);
  o.queue_capacity = 4;  // the 0.75 watermark sheds best-effort at depth 3
  PlacementService svc(cloud, o);
  SubmitOptions best_effort;
  best_effort.klass = RequestClass::kBestEffort;
  EXPECT_EQ(svc.submit(Request({1}, 1), best_effort).admission,
            AdmissionStatus::kAccepted);
  EXPECT_EQ(svc.submit(Request({1}, 2)).admission, AdmissionStatus::kAccepted);
  // Depth 2, below the watermark: best-effort still admitted.
  EXPECT_EQ(svc.submit(Request({1}, 3), best_effort).admission,
            AdmissionStatus::kAccepted);
  // Depth 3 = watermark: best-effort is shed, batch class still accepted.
  EXPECT_EQ(svc.submit(Request({1}, 4), best_effort).admission,
            AdmissionStatus::kShed);
  EXPECT_EQ(svc.submit(Request({1}, 5)).admission, AdmissionStatus::kAccepted);
  EXPECT_EQ(svc.stats().shed, 1u);
}

TEST(Service, BatchWindowConservesCapacityAndGrantsAll) {
  Cloud cloud = small_cloud();
  PlacementService svc(cloud, virtual_options(/*max_batch=*/4));
  for (int i = 1; i <= 4; ++i) {
    svc.submit(Request({2}, static_cast<std::uint64_t>(i)));
  }
  const auto outcomes = svc.take_outcomes();
  ASSERT_EQ(outcomes.size(), 4u);
  int granted = 0;
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.kind, OutcomeKind::kGranted);  // batch step admitted all
    granted += o.granted_vms;
  }
  EXPECT_EQ(granted, 8);
  EXPECT_EQ(cloud.remaining().total(), 0);
  EXPECT_EQ(cloud.lease_count(), 4u);
}

TEST(Service, EmptyAndOversizedRequestsGetTypedOutcomes) {
  Cloud cloud = small_cloud();
  PlacementService svc(cloud, virtual_options(/*max_batch=*/3));
  svc.submit(Request({0}, 1));
  svc.submit(Request({9}, 2));   // > 8 total VMs: can never be served
  svc.submit(Request({2}, 3));
  const auto outcomes = svc.take_outcomes();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].kind, OutcomeKind::kRejectedEmpty);
  EXPECT_EQ(outcomes[1].kind, OutcomeKind::kRejectedOverCapacity);
  EXPECT_TRUE(has_lease(outcomes[2].kind));
}

TEST(Service, ReleaseReturnsCapacity) {
  Cloud cloud = small_cloud();
  PlacementService svc(cloud, virtual_options());
  svc.submit(Request({8}, 1));
  svc.flush();
  auto outcomes = svc.take_outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(has_lease(outcomes[0].kind));
  EXPECT_EQ(cloud.remaining().total(), 0);
  svc.release(outcomes[0].lease);
  EXPECT_EQ(cloud.remaining().total(), 8);
}

TEST(Service, PriorityDisciplinePicksUrgentWindowMembers) {
  Cloud cloud = small_cloud();
  ServiceOptions o = virtual_options(/*max_batch=*/2, /*wait=*/1.0);
  o.discipline = placement::QueueDiscipline::kPriority;
  PlacementService svc(cloud, o);
  SubmitOptions low;
  low.priority = 1;
  SubmitOptions high;
  high.priority = 9;
  // Three submits, capacity 8, but the window holds only two: the two
  // highest priorities get decided first.
  svc.submit(Request({2}, 1), low);
  svc.submit(Request({2}, 2), high);  // size close fires here (2 pending)
  const auto first = svc.take_outcomes();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].window_id, first[1].window_id);
  svc.submit(Request({2}, 3), high);
  svc.submit(Request({2}, 4), low);
  const auto second = svc.take_outcomes();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(svc.stats().windows, 2u);
}

TEST(Service, SmallestFirstWindowMembership) {
  Cloud cloud = small_cloud();
  ServiceOptions o = virtual_options(/*max_batch=*/2, /*wait=*/1.0);
  o.discipline = placement::QueueDiscipline::kSmallestFirst;
  o.queue_capacity = 8;
  PlacementService svc(cloud, o);
  // Submit 3 without tripping the size close (depth stays < 2 only if we
  // check after each)... max_batch=2 closes on the second submit, so the
  // first window holds the two smallest of {5, 1}: both.
  svc.submit(Request({5}, 1));
  svc.submit(Request({1}, 2));
  const auto outcomes = svc.take_outcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  // Dispatch order inside the window is smallest-first: seq 2 (1 VM) was
  // placed ahead of seq 1 (5 VMs); both fit, so both carry leases.
  EXPECT_TRUE(has_lease(outcomes[0].kind));
  EXPECT_TRUE(has_lease(outcomes[1].kind));
}

TEST(Service, StopFlushesAndReconciles) {
  Cloud cloud = small_cloud();
  PlacementService svc(cloud, virtual_options(/*max_batch=*/8));
  svc.submit(Request({1}, 1));
  svc.submit(Request({1}, 2));
  svc.stop();
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_EQ(svc.take_outcomes().size(), 2u);
  // After stop, submits are rejected with backpressure.
  EXPECT_EQ(svc.submit(Request({1}, 3)).admission,
            AdmissionStatus::kQueueFull);
  svc.stop();  // idempotent
}

TEST(Service, JournalRecordsSubmitBeforeWindow) {
  Cloud cloud = small_cloud();
  std::ostringstream journal;
  ServiceOptions o = virtual_options(/*max_batch=*/2);
  o.journal = &journal;
  PlacementService svc(cloud, o);
  svc.submit(Request({1}, 1));
  svc.submit(Request({1}, 2));
  svc.release(svc.take_outcomes()[0].lease);
  std::istringstream in(journal.str());
  const auto records = parse_journal(in);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, RecordType::kSubmit);
  EXPECT_EQ(records[1].type, RecordType::kSubmit);
  EXPECT_EQ(records[2].type, RecordType::kWindow);
  EXPECT_EQ(records[2].members, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(records[2].reason, "size");
  EXPECT_EQ(records[3].type, RecordType::kRelease);
}

TEST(Service, StatsCountEveryPath) {
  Cloud cloud = small_cloud();
  ServiceOptions o = virtual_options(/*max_batch=*/64);
  o.queue_capacity = 2;
  PlacementService svc(cloud, o);
  svc.submit(Request({1}, 1));
  svc.submit(Request({1}, 2));
  svc.submit(Request({1}, 3));  // queue full
  SubmitOptions late;
  late.deadline = -1.0;
  svc.submit(Request({1}, 4), late);  // shed... queue full wins first
  svc.flush();
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.queue_full, 2u);  // capacity check precedes the deadline check
  EXPECT_EQ(s.decided, 2u);
  EXPECT_GE(s.windows, 1u);
}

// The provisioner/* counters on the served path (docs/observability.md):
// `grants` counts every lease commit_window grants, batch and ladder alike;
// `rejections` counts the typed rejections, empty and over capacity, that
// `reject_empty` and `reject_over_capacity` split.
TEST(Service, ProvisionerCountersMatchServedOutcomes) {
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  obs::Counter& grants = reg.counter("provisioner/grants");
  obs::Counter& rejections = reg.counter("provisioner/rejections");
  obs::Counter& reject_empty = reg.counter("provisioner/reject_empty");
  obs::Counter& reject_over = reg.counter("provisioner/reject_over_capacity");
  const std::uint64_t grants0 = grants.value();
  const std::uint64_t rejections0 = rejections.value();
  const std::uint64_t empty0 = reject_empty.value();
  const std::uint64_t over0 = reject_over.value();

  Cloud cloud = small_cloud();  // 8 VMs
  PlacementService svc(cloud, virtual_options(/*max_batch=*/3));
  // Window 1: two batch grants and an empty request.
  svc.submit(Request({2}, 1));
  svc.submit(Request({2}, 2));
  svc.submit(Request({0}, 3));
  // Window 2: one batch grant; the oversized member falls to the ladder.
  svc.submit(Request({9}, 4));
  svc.submit(Request({1}, 5));
  svc.flush();
  // Window 3: a singleton, granted by the ladder.
  svc.submit(Request({3}, 6));
  svc.flush();
  reg.set_enabled(was_enabled);

  std::uint64_t leased = 0;
  std::uint64_t empty = 0;
  std::uint64_t over = 0;
  std::uint64_t batch = 0;
  std::uint64_t ladder = 0;
  for (const Outcome& o : svc.take_outcomes()) {
    leased += has_lease(o.kind);
    empty += o.kind == OutcomeKind::kRejectedEmpty;
    over += o.kind == OutcomeKind::kRejectedOverCapacity;
    batch += o.kind == OutcomeKind::kGranted;
    ladder += o.kind == OutcomeKind::kDegraded;
  }
  EXPECT_EQ(batch, 3u);
  EXPECT_EQ(ladder, 1u);
  EXPECT_EQ(leased, 4u);
  EXPECT_EQ(empty, 1u);
  EXPECT_EQ(over, 1u);
  EXPECT_EQ(grants.value() - grants0, leased);
  EXPECT_EQ(rejections.value() - rejections0, empty + over);
  EXPECT_EQ(reject_empty.value() - empty0, empty);
  EXPECT_EQ(reject_over.value() - over0, over);
}

struct BatchingResult {
  std::size_t leased = 0;
  double total_dc = 0;
  double mean_dc() const { return total_dc / static_cast<double>(leased); }
};

// Serves `stream` in `rounds` equal rounds through FIFO windows of `window`
// requests.  Windows close on size or at the round's flush; each round's
// leases are released before the next, so every window size sees the same
// capacity at every round start.
BatchingResult serve_fifo_rounds(const workload::SimScenario& scenario,
                                 const std::vector<Request>& stream,
                                 std::size_t rounds, std::size_t window) {
  Cloud cloud(scenario.topology, scenario.catalog, scenario.capacity);
  ServiceOptions o = virtual_options(window, /*max_wait=*/1e9);
  o.queue_capacity = stream.size() / rounds + 1;
  PlacementService svc(cloud, o);
  BatchingResult res;
  const std::size_t per_round = stream.size() / rounds;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < per_round; ++i) {
      svc.submit(stream[r * per_round + i]);
    }
    svc.flush();
    for (const Outcome& out : svc.take_outcomes()) {
      if (!has_lease(out.kind)) continue;
      ++res.leased;
      res.total_dc += out.distance;
      svc.release(out.lease);
    }
  }
  return res;
}

// Theorem 2: Algorithm 2's transfers conserve per-node per-type totals and
// only lower the summed DC, so deciding FIFO windows of W > 1 requests never
// places a stream worse, on mean DC, than deciding each request alone
// (W = 1).  Seed 42's stream in rounds of 24 requests (above the largest
// window), at 2 and at 6 rounds.  Every request is granted at every W.  The
// total DCs are pinned too: with the transfers disabled every W places
// exactly as W = 1 does, which the inequality alone lets through.
TEST(ServiceBatching, FifoWindowsNeverRaiseMeanDcAboveDecidingAlone) {
  const workload::SimScenario scenario = gate_scenario();
  constexpr std::size_t kPerRound = 24;
  constexpr std::size_t kWindows[] = {1, 4, 8, 20};
  const struct {
    std::size_t rounds;
    double total_dc[std::size(kWindows)];
  } cases[] = {{2, {94, 92, 90, 89}}, {6, {266, 263, 257, 252}}};
  for (const auto& c : cases) {
    const std::vector<Request> stream =
        gate_stream(scenario, c.rounds * kPerRound);
    double alone = 0;
    for (std::size_t k = 0; k < std::size(kWindows); ++k) {
      SCOPED_TRACE(testing::Message() << c.rounds << " rounds, W = "
                                      << kWindows[k]);
      const BatchingResult res =
          serve_fifo_rounds(scenario, stream, c.rounds, kWindows[k]);
      ASSERT_EQ(res.leased, stream.size());
      if (kWindows[k] == 1) alone = res.mean_dc();
      EXPECT_LE(res.mean_dc(), alone * (1 + 1e-9));
      EXPECT_DOUBLE_EQ(res.total_dc, c.total_dc[k]);
    }
  }
}

}  // namespace
}  // namespace vcopt::service
