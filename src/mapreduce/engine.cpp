#include "mapreduce/engine.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>

#include "check/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vcopt::mapreduce {

double JobMetrics::non_local_map_fraction() const {
  if (maps_total == 0) return 0;
  return static_cast<double>(maps_rack_local + maps_remote) /
         static_cast<double>(maps_total);
}

double JobMetrics::non_local_shuffle_fraction() const {
  if (shuffle_bytes_total == 0) return 0;
  return (shuffle_bytes_total - shuffle_bytes_node_local) / shuffle_bytes_total;
}

MapReduceEngine::MapReduceEngine(const cluster::Topology& topology,
                                 const sim::NetworkConfig& net_config,
                                 VirtualCluster cluster, JobConfig job,
                                 std::uint64_t seed,
                                 std::vector<double> node_speed)
    : topo_(topology),
      cluster_(std::move(cluster)),
      job_(std::move(job)),
      rng_(seed),
      net_(topo_, net_config, queue_),
      node_speed_(std::move(node_speed)) {
  job_.validate();
  if (cluster_.size() == 0) {
    throw std::invalid_argument("MapReduceEngine: empty virtual cluster");
  }
  if (!node_speed_.empty()) {
    if (node_speed_.size() != topo_.node_count()) {
      throw std::invalid_argument("MapReduceEngine: node_speed size mismatch");
    }
    for (double s : node_speed_) {
      if (s <= 0) throw std::invalid_argument("MapReduceEngine: speed <= 0");
    }
  }
  placement_ = std::make_unique<HdfsPlacement>(
      cluster_, topo_, static_cast<std::size_t>(job_.num_maps()),
      job_.replication, rng_);

  metrics_.maps_total = job_.num_maps();
  metrics_.cluster_distance = cluster_.distance(topo_);

  const auto blocks = static_cast<std::size_t>(job_.num_maps());
  pending_maps_.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) pending_maps_[b] = b;
  free_map_slots_.assign(cluster_.size(), job_.map_slots_per_vm);
  if (!job_.map_slots_per_type.empty()) {
    for (std::size_t vm = 0; vm < cluster_.size(); ++vm) {
      const std::size_t type = cluster_.vm(vm).type;
      if (type >= job_.map_slots_per_type.size()) {
        throw std::invalid_argument(
            "MapReduceEngine: map_slots_per_type missing an entry for a VM "
            "type present in the cluster");
      }
      free_map_slots_[vm] = job_.map_slots_per_type[type];
    }
  }
  wait_until_.assign(cluster_.size(), -1.0);
  map_done_.assign(blocks, false);
  node_alive_.assign(topo_.node_count(), true);
  locality_counted_.assign(blocks, false);
  output_node_.assign(blocks, 0);
  block_epoch_.assign(blocks, 0);

  const std::vector<std::size_t> reducer_vms =
      assign_reducers(cluster_, job_.num_reduces, job_.reduce_slots_per_vm,
                      job_.reducer_placement);
  reducers_.resize(reducer_vms.size());
  for (std::size_t r = 0; r < reducer_vms.size(); ++r) {
    reducers_[r].vm = reducer_vms[r];
    reducers_[r].segments_pending = job_.num_maps();
    reducers_[r].received.assign(blocks, false);
  }
  if (job_.pinned_reducer_vm >= 0) {
    const auto pin = static_cast<std::size_t>(job_.pinned_reducer_vm);
    if (pin >= cluster_.size()) {
      throw std::invalid_argument("MapReduceEngine: pinned_reducer_vm out of range");
    }
    reducers_[0].vm = pin;
  }
}

double MapReduceEngine::block_bytes(std::size_t block) const {
  // The last split may be partial.
  const double full = job_.split_bytes;
  if (block + 1 < static_cast<std::size_t>(job_.num_maps())) return full;
  const double rest =
      job_.input_bytes - full * (static_cast<double>(job_.num_maps()) - 1);
  return rest > 0 ? rest : full;
}

double MapReduceEngine::node_speed(std::size_t node) const {
  return node_speed_.empty() ? 1.0 : node_speed_[node];
}

bool MapReduceEngine::vm_alive(std::size_t vm) const {
  return node_alive_[cluster_.vm(vm).node];
}

std::size_t MapReduceEngine::choose_live_replica(std::size_t block,
                                                 std::size_t vm) const {
  const std::size_t here = cluster_.vm(vm).node;
  const BlockReplicas& reps = placement_->replicas(block);
  std::size_t best = cluster_.size();
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t r : reps) {
    const std::size_t rn = cluster_.vm(r).node;
    if (!node_alive_[rn]) continue;
    const double d = topo_.distance(rn, here);
    if (d < best_d) {
      best_d = d;
      best = r;
    }
  }
  if (best == cluster_.size()) {
    throw std::runtime_error(
        "MapReduceEngine: all replicas of an input block were lost (failures "
        "exceeded the replication factor)");
  }
  return best;
}

bool MapReduceEngine::launch_speculative_on(std::size_t vm) {
  if (!job_.speculative_execution || !pending_maps_.empty()) return false;
  // Count copies per block and find the oldest single-copy running map that
  // is not already running on this VM.
  const RunningMap* victim = nullptr;
  for (const RunningMap& rm : running_maps_) {
    if (map_done_[rm.block] || rm.vm == vm) continue;
    int copies = 0;
    for (const RunningMap& other : running_maps_) {
      if (other.block == rm.block) ++copies;
    }
    if (copies >= 2) continue;
    if (victim == nullptr || rm.started < victim->started) victim = &rm;
  }
  if (victim == nullptr) return false;
  const std::size_t block = victim->block;
  --free_map_slots_[vm];
  ++maps_running_;
  ++metrics_.speculative_launched;
  start_map(block, vm, /*backup=*/true);
  return true;
}

void MapReduceEngine::launch_maps_on(std::size_t vm) {
  if (!vm_alive(vm)) return;
  while (free_map_slots_[vm] > 0 && pending_maps_.empty() &&
         launch_speculative_on(vm)) {
  }
  while (free_map_slots_[vm] > 0 && !pending_maps_.empty()) {
    const auto idx =
        pick_map_task(pending_maps_, *placement_, cluster_, topo_, vm);
    if (!idx) return;
    const std::size_t block = pending_maps_[*idx];

    // Delay scheduling: hold a slot whose best option is non-local, giving
    // other VMs locality_wait seconds to claim their node-local tasks.
    if (job_.locality_wait > 0 &&
        classify_locality(*placement_, cluster_, topo_, block, vm) !=
            Locality::kNodeLocal) {
      if (wait_until_[vm] < 0) {
        wait_until_[vm] = queue_.now() + job_.locality_wait;
        ++metrics_.locality_waits;
        queue_.schedule(wait_until_[vm], [this, vm] { launch_maps_on(vm); });
        return;
      }
      if (queue_.now() < wait_until_[vm]) return;  // retry event pending
      // Wait expired: accept the non-local task below.
    }
    wait_until_[vm] = -1.0;

    pending_maps_.erase(pending_maps_.begin() + static_cast<long>(*idx));
    --free_map_slots_[vm];
    ++maps_running_;
    start_map(block, vm, /*backup=*/false);
  }
}

void MapReduceEngine::start_map(std::size_t block, std::size_t vm,
                                bool backup) {
  running_maps_.push_back(RunningMap{block, vm, queue_.now()});
  // Locality accounting is by where the task *actually reads from*; backup
  // copies and post-failure re-executions do not re-count (totals stay =
  // maps_total).
  const std::size_t replica = choose_live_replica(block, vm);
  const std::size_t src = cluster_.vm(replica).node;
  const std::size_t dst = cluster_.vm(vm).node;
  if (!backup && !locality_counted_[block]) {
    locality_counted_[block] = true;
    if (src == dst) {
      ++metrics_.maps_node_local;
    } else if (topo_.same_rack(src, dst)) {
      ++metrics_.maps_rack_local;
    } else {
      ++metrics_.maps_remote;
    }
  }
  // Read the split (disk flow when local, network flow otherwise), then
  // compute (scaled by the host node's speed), then finish.
  net_.start_flow(src, dst, block_bytes(block),
                  [this, block, vm, backup](sim::FlowId) {
                    const double compute = block_bytes(block) *
                                           job_.map_cost_per_byte /
                                           node_speed(cluster_.vm(vm).node);
                    queue_.schedule_in(compute, [this, block, vm, backup] {
                      finish_map(block, vm, backup);
                    });
                  });
}

void MapReduceEngine::finish_map(std::size_t block, std::size_t vm,
                                 bool backup) {
  // A completion with no matching running entry was voided by a node
  // failure: the attempt is gone, the slot was never returned.
  bool found = false;
  for (std::size_t i = 0; i < running_maps_.size(); ++i) {
    if (running_maps_[i].block == block && running_maps_[i].vm == vm) {
      running_maps_[i] = running_maps_.back();
      running_maps_.pop_back();
      found = true;
      break;
    }
  }
  if (!found) return;

  --maps_running_;
  ++free_map_slots_[vm];
  if (map_done_[block]) {
    // A sibling copy already delivered this block's output; this one loses.
    launch_maps_on(vm);
    return;
  }
  map_done_[block] = true;
  if (backup) ++metrics_.speculative_wins;
  ++maps_done_;
  metrics_.map_phase_end = queue_.now();
  start_shuffle(block, vm);
  launch_maps_on(vm);
}

void MapReduceEngine::start_shuffle(std::size_t block, std::size_t map_vm) {
  // The map's output lives on the winning copy's node; each reducer that
  // does not already hold this block's segment fetches it from there.
  output_node_[block] = cluster_.vm(map_vm).node;
  for (std::size_t r = 0; r < reducers_.size(); ++r) {
    if (reducers_[r].done || reducers_[r].received[block]) continue;
    fetch_segment(r, block);
  }
}

void MapReduceEngine::fetch_segment(std::size_t reducer, std::size_t block) {
  double per_reducer = block_bytes(block) * job_.intermediate_ratio /
                       static_cast<double>(reducers_.size());
  const std::size_t src = output_node_[block];
  const std::size_t dst = cluster_.vm(reducers_[reducer].vm).node;
  // Camdoop-style aggregation: segments folding through the switch fabric
  // (off-rack transfers) shrink in the network.
  if (job_.in_network_aggregation < 1.0 && !topo_.same_rack(src, dst)) {
    per_reducer *= job_.in_network_aggregation;
  }
  metrics_.shuffle_bytes_total += per_reducer;
  if (src == dst) {
    metrics_.shuffle_bytes_node_local += per_reducer;
  } else if (topo_.same_rack(src, dst)) {
    metrics_.shuffle_bytes_rack_local += per_reducer;
  } else {
    metrics_.shuffle_bytes_remote += per_reducer;
  }
  const int be = block_epoch_[block];
  const int re = reducers_[reducer].epoch;
  net_.start_flow(src, dst, per_reducer,
                  [this, reducer, block, be, re, per_reducer](sim::FlowId) {
                    segment_arrived(reducer, block, be, re, per_reducer);
                  });
}

void MapReduceEngine::segment_arrived(std::size_t reducer, std::size_t block,
                                      int block_epoch, int reducer_epoch,
                                      double bytes) {
  ReducerState& st = reducers_[reducer];
  // Fences: the source output was lost, or the reducer restarted, after
  // this fetch began — the bytes are void.
  if (st.done || block_epoch != block_epoch_[block] ||
      reducer_epoch != st.epoch || st.received[block]) {
    return;
  }
  st.received[block] = true;
  st.bytes_received += bytes;
  if (--st.segments_pending == 0) {
    metrics_.shuffle_end = std::max(metrics_.shuffle_end, queue_.now());
    start_reduce(reducer);
  }
}

void MapReduceEngine::start_reduce(std::size_t reducer) {
  const int epoch = reducers_[reducer].epoch;
  const double compute =
      reducers_[reducer].bytes_received * job_.reduce_cost_per_byte /
      node_speed(cluster_.vm(reducers_[reducer].vm).node);
  queue_.schedule_in(compute, [this, reducer, epoch] {
    if (reducers_[reducer].done || reducers_[reducer].epoch != epoch) return;
    write_output(reducer);
  });
}

void MapReduceEngine::write_output(std::size_t reducer) {
  ReducerState& st = reducers_[reducer];
  const double out_bytes = st.bytes_received * job_.output_ratio;
  if (out_bytes <= 0) {
    reducer_done(reducer);
    return;
  }
  // HDFS write pipeline: the reducer's VM is the writer (first replica
  // local), subsequent replicas follow the placement policy, skipping VMs
  // on failed nodes.  The chain is modelled as sequential hops.
  BlockReplicas chain = place_block(cluster_, topo_, job_.replication, rng_);
  if (!chain.empty()) chain[0] = st.vm;
  BlockReplicas live;
  for (std::size_t r : chain) {
    if (vm_alive(r)) live.push_back(r);
  }
  chain = live;
  if (chain.empty() || chain[0] != st.vm) {
    chain.insert(chain.begin(), st.vm);
  }
  st.output_replicas_pending = static_cast<int>(chain.size());

  const int epoch = st.epoch;
  // The stored closure must not own itself (a shared_ptr cycle would leak
  // it): it captures a weak_ptr, and each in-flight flow callback carries
  // the strong reference that keeps the chain alive until the last hop.
  auto do_hop = std::make_shared<std::function<void(std::size_t)>>();
  std::weak_ptr<std::function<void(std::size_t)>> weak_hop = do_hop;
  *do_hop = [this, reducer, chain, out_bytes, weak_hop, epoch](std::size_t h) {
    auto self = weak_hop.lock();
    const std::size_t src =
        h == 0 ? cluster_.vm(chain[0]).node : cluster_.vm(chain[h - 1]).node;
    const std::size_t dst = cluster_.vm(chain[h]).node;
    net_.start_flow(src, dst, out_bytes,
                    [this, reducer, chain, self, h, epoch](sim::FlowId) {
                      ReducerState& rst = reducers_[reducer];
                      if (rst.done || rst.epoch != epoch) return;  // restarted
                      --rst.output_replicas_pending;
                      if (h + 1 < chain.size()) {
                        (*self)(h + 1);
                      } else if (rst.output_replicas_pending == 0) {
                        reducer_done(reducer);
                      }
                    });
  };
  (*do_hop)(0);
}

void MapReduceEngine::reducer_done(std::size_t reducer) {
  ReducerState& st = reducers_[reducer];
  if (st.done) return;
  st.done = true;
  if (++reducers_done_ == static_cast<int>(reducers_.size())) {
    metrics_.runtime = queue_.now();
  }
}

void MapReduceEngine::add_background_flow(std::size_t src, std::size_t dst,
                                          double bytes) {
  if (ran_) {
    throw std::logic_error("add_background_flow: job already started");
  }
  background_.push_back(BackgroundFlow{src, dst, bytes});
}

void MapReduceEngine::fail_node_at(std::size_t node, double time) {
  if (ran_) throw std::logic_error("fail_node_at: job already started");
  if (node >= topo_.node_count()) throw std::out_of_range("fail_node_at");
  if (time < 0) throw std::invalid_argument("fail_node_at: negative time");
  failures_.emplace_back(node, time);
}

void MapReduceEngine::add_vms_at(
    double time, const std::vector<std::pair<std::size_t, std::size_t>>& vms) {
  if (ran_) throw std::logic_error("add_vms_at: job already started");
  if (time < 0) throw std::invalid_argument("add_vms_at: negative time");
  for (const auto& [node, type] : vms) {
    if (node >= topo_.node_count()) throw std::out_of_range("add_vms_at");
    joins_.emplace_back(time, node, type);
  }
}

void MapReduceEngine::handle_join(std::size_t node, std::size_t type) {
  const std::size_t vm = cluster_.add_vm(node, type);
  int slots = job_.map_slots_per_vm;
  if (!job_.map_slots_per_type.empty()) {
    if (type >= job_.map_slots_per_type.size()) {
      throw std::invalid_argument(
          "MapReduceEngine: joined VM's type has no map_slots_per_type entry");
    }
    slots = job_.map_slots_per_type[type];
  }
  free_map_slots_.push_back(node_alive_[node] ? slots : 0);
  wait_until_.push_back(-1.0);
  ++metrics_.vms_repaired;
  launch_maps_on(vm);
}

void MapReduceEngine::handle_failure(std::size_t node) {
  if (!node_alive_[node]) return;
  node_alive_[node] = false;

  // Stop dead VMs from taking further work.
  for (std::size_t vm = 0; vm < cluster_.size(); ++vm) {
    if (!vm_alive(vm)) free_map_slots_[vm] = 0;
  }

  // Void running map copies on dead VMs; blocks with no surviving copy go
  // back to pending.
  std::vector<std::size_t> orphaned;
  for (std::size_t i = 0; i < running_maps_.size();) {
    if (!vm_alive(running_maps_[i].vm)) {
      orphaned.push_back(running_maps_[i].block);
      running_maps_[i] = running_maps_.back();
      running_maps_.pop_back();
      --maps_running_;
    } else {
      ++i;
    }
  }
  for (std::size_t block : orphaned) {
    if (map_done_[block]) continue;
    bool still_running = false;
    for (const RunningMap& rm : running_maps_) {
      if (rm.block == block) still_running = true;
    }
    if (!still_running &&
        std::find(pending_maps_.begin(), pending_maps_.end(), block) ==
            pending_maps_.end()) {
      pending_maps_.push_back(block);
      ++metrics_.maps_reexecuted;
    }
  }

  // Which reducers must relocate?
  std::vector<std::size_t> restarting;
  for (std::size_t r = 0; r < reducers_.size(); ++r) {
    if (!reducers_[r].done && !vm_alive(reducers_[r].vm)) restarting.push_back(r);
  }

  // Completed map outputs stored on the dead node are lost if any active
  // reducer still needs them.
  for (std::size_t b = 0; b < map_done_.size(); ++b) {
    if (!map_done_[b] || output_node_[b] != node) continue;
    bool needed = !restarting.empty();
    for (const ReducerState& st : reducers_) {
      if (!st.done && !st.received[b]) needed = true;
    }
    if (!needed) continue;
    map_done_[b] = false;
    --maps_done_;
    ++block_epoch_[b];
    pending_maps_.push_back(b);
    ++metrics_.maps_reexecuted;
    // Segments of the lost output that reducers already hold stay valid
    // (they were copied before the failure); only reducers lacking the
    // segment wait for the re-execution.
  }

  // Relocate reducers to the densest live node's VMs and refetch every
  // surviving map output.
  for (std::size_t r : restarting) {
    ReducerState& st = reducers_[r];
    ++metrics_.reducers_restarted;
    ++st.epoch;
    std::size_t best_vm = cluster_.size();
    int best_density = -1;
    for (std::size_t vm = 0; vm < cluster_.size(); ++vm) {
      if (!vm_alive(vm)) continue;
      int density = 0;
      for (const VmInstance& v : cluster_.vms()) {
        if (v.node == cluster_.vm(vm).node) ++density;
      }
      if (density > best_density) {
        best_density = density;
        best_vm = vm;
      }
    }
    if (best_vm == cluster_.size()) {
      throw std::runtime_error("MapReduceEngine: no live VM to host reducer");
    }
    st.vm = best_vm;
    st.received.assign(map_done_.size(), false);
    st.segments_pending = job_.num_maps();
    st.bytes_received = 0;
    st.output_replicas_pending = 0;
    for (std::size_t b = 0; b < map_done_.size(); ++b) {
      if (map_done_[b]) fetch_segment(r, b);
    }
  }

  // Fill freed scheduling opportunities on the survivors.
  for (std::size_t vm = 0; vm < cluster_.size(); ++vm) launch_maps_on(vm);
}

JobMetrics MapReduceEngine::run() {
  VCOPT_TRACE_SPAN("mapreduce/run");
  if (ran_) throw std::logic_error("MapReduceEngine::run: already ran");
  ran_ = true;
  for (const BackgroundFlow& bf : background_) {
    net_.start_flow(bf.src, bf.dst, bf.bytes, [](sim::FlowId) {});
  }
  for (const auto& [node, time] : failures_) {
    queue_.schedule(time, [this, node] { handle_failure(node); });
  }
  for (const auto& [time, node, type] : joins_) {
    queue_.schedule(time, [this, node, type] { handle_join(node, type); });
  }
  // Background traffic is other tenants' — exclude it from the job's stats.
  const sim::TrafficStats baseline = net_.stats();
  // Kick off the first wave of map tasks on every VM.
  for (std::size_t vm = 0; vm < cluster_.size(); ++vm) launch_maps_on(vm);
  queue_.run();
  if (reducers_done_ != static_cast<int>(reducers_.size())) {
    throw std::logic_error("MapReduceEngine: job did not complete");
  }
  // The cluster the job ENDED on: live VMs plus repair joins.  The shuffle
  // already ran against this repaired topology; this records its DC so
  // callers can compare against the pre-failure cluster_distance.
  {
    std::size_t types = 1;
    for (const VmInstance& v : cluster_.vms()) {
      types = std::max(types, v.type + 1);
    }
    cluster::Allocation live(topo_.node_count(), types);
    for (const VmInstance& v : cluster_.vms()) {
      if (node_alive_[v.node]) live.add(v.node, v.type, 1);
    }
    metrics_.final_cluster_distance =
        live.empty_allocation()
            ? 0
            : live.best_central(topo_).distance;
  }
  metrics_.traffic = net_.stats();
  metrics_.traffic.local_bytes -= baseline.local_bytes;
  metrics_.traffic.rack_bytes -= baseline.rack_bytes;
  metrics_.traffic.cross_rack_bytes -= baseline.cross_rack_bytes;
  metrics_.traffic.cross_cloud_bytes -= baseline.cross_cloud_bytes;

  // Phase-boundary invariants: maps finish before the last shuffle fetch
  // lands, shuffles land before the job completes, and the job's own traffic
  // deltas are non-negative.
  VCOPT_INVARIANT(metrics_.map_phase_end <= metrics_.shuffle_end + 1e-9 &&
                  metrics_.shuffle_end <= metrics_.runtime + 1e-9)
      << " phase timestamps out of order: map_phase_end="
      << metrics_.map_phase_end << " shuffle_end=" << metrics_.shuffle_end
      << " runtime=" << metrics_.runtime;
  VCOPT_INVARIANT(metrics_.traffic.local_bytes >= 0 &&
                  metrics_.traffic.rack_bytes >= 0 &&
                  metrics_.traffic.cross_rack_bytes >= 0 &&
                  metrics_.traffic.cross_cloud_bytes >= 0)
      << " job traffic delta went negative (baseline subtraction bug)";

  // Project the job's simulated phases into the trace on their own process
  // lane (pid 2): phases overlap (shuffle starts while maps still run), so
  // each gets its own tid row.  Timestamps are simulated seconds as µs.
  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.complete("mapreduce/map_phase", 0,
                    metrics_.map_phase_end * 1e6, /*pid=*/2, /*tid=*/1);
    tracer.complete("mapreduce/shuffle_phase", 0,
                    metrics_.shuffle_end * 1e6, /*pid=*/2, /*tid=*/2);
    tracer.complete("mapreduce/reduce_phase", metrics_.shuffle_end * 1e6,
                    (metrics_.runtime - metrics_.shuffle_end) * 1e6,
                    /*pid=*/2, /*tid=*/3);
  }
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.counter("mapreduce/jobs_run").add();
    reg.counter("mapreduce/maps_run").add(
        static_cast<std::uint64_t>(metrics_.maps_total));
    reg.counter("mapreduce/maps_reexecuted")
        .add(static_cast<std::uint64_t>(metrics_.maps_reexecuted));
    reg.counter("mapreduce/vms_repaired")
        .add(static_cast<std::uint64_t>(metrics_.vms_repaired));
    reg.gauge("mapreduce/last_runtime_seconds").set(metrics_.runtime);
  }
  return metrics_;
}

}  // namespace vcopt::mapreduce
