#include "dataflow/dag_engine.h"

#include <stdexcept>

namespace vcopt::dataflow {

DagEngine::DagEngine(const cluster::Topology& topology,
                     const sim::NetworkConfig& net_config,
                     mapreduce::VirtualCluster cluster, Dag dag,
                     std::uint64_t seed)
    : topo_(topology),
      cluster_(std::move(cluster)),
      dag_(std::move(dag)),
      seed_(seed),
      net_(topo_, net_config, queue_) {
  dag_.validate();
  if (cluster_.size() == 0) {
    throw std::invalid_argument("DagEngine: empty virtual cluster");
  }
  metrics_.cluster_distance = cluster_.distance(topo_);
  metrics_.stages.resize(dag_.stage_count());

  states_.resize(dag_.stage_count());
  stages_left_ = dag_.stage_count();
  for (std::size_t s = 0; s < dag_.stage_count(); ++s) {
    StageState& st = states_[s];
    const Stage& spec = dag_.stage(s);
    st.tasks.resize(static_cast<std::size_t>(spec.tasks));
    st.inputs_pending = dag_.in_edges(s).size();
    st.tasks_left = spec.tasks;
    st.vm_queues.resize(cluster_.size());
    st.vm_busy.assign(cluster_.size(), false);
    for (std::size_t t = 0; t < st.tasks.size(); ++t) {
      // Round-robin placement, offset per stage (plus the seed) so
      // consecutive stages do not all pile onto VM 0.
      const std::size_t vm =
          (t + s + static_cast<std::size_t>(seed_ % cluster_.size())) %
          cluster_.size();
      st.tasks[t].vm = vm;
      st.vm_queues[vm].push_back(t);
      if (dag_.is_source(s)) {
        st.tasks[t].input_bytes =
            spec.source_bytes / static_cast<double>(spec.tasks);
      }
    }
  }
  edge_flows_left_.assign(dag_.edges().size(), 0);
}

void DagEngine::maybe_start_stage(std::size_t s) {
  StageState& st = states_[s];
  if (st.inputs_pending > 0) return;
  metrics_.stages[s].start = queue_.now();
  for (TaskState& task : st.tasks) {
    metrics_.stages[s].input_bytes += task.input_bytes;
  }
  if (st.tasks_left == 0) {  // zero-task impossible (tasks >= 1); safety
    stage_finished(s);
    return;
  }
  for (std::size_t vm = 0; vm < cluster_.size(); ++vm) {
    start_next_task(s, vm);
  }
}

void DagEngine::start_next_task(std::size_t s, std::size_t vm_slot) {
  StageState& st = states_[s];
  if (st.vm_busy[vm_slot] || st.vm_queues[vm_slot].empty()) return;
  const std::size_t task = st.vm_queues[vm_slot].front();
  st.vm_queues[vm_slot].erase(st.vm_queues[vm_slot].begin());
  st.vm_busy[vm_slot] = true;
  ++st.tasks_running;

  const Stage& spec = dag_.stage(s);
  TaskState& ts = st.tasks[task];
  const double compute = ts.input_bytes * spec.compute_cost_per_byte;
  const auto done = [this, s, task, vm_slot] { finish_task(s, task, vm_slot); };
  if (dag_.is_source(s)) {
    // Source tasks stream their split off the node's local storage first.
    const std::size_t node = cluster_.vm(ts.vm).node;
    net_.start_flow(node, node, ts.input_bytes,
                    [this, compute, done](sim::FlowId) {
                      queue_.schedule_in(compute, done);
                    });
  } else {
    queue_.schedule_in(compute, done);
  }
}

void DagEngine::finish_task(std::size_t s, std::size_t task,
                            std::size_t vm_slot) {
  StageState& st = states_[s];
  const Stage& spec = dag_.stage(s);
  st.tasks[task].output_bytes = st.tasks[task].input_bytes * spec.output_ratio;
  metrics_.stages[s].output_bytes += st.tasks[task].output_bytes;
  --st.tasks_running;
  --st.tasks_left;
  st.vm_busy[vm_slot] = false;
  if (st.tasks_left == 0) {
    stage_finished(s);
  } else {
    start_next_task(s, vm_slot);
  }
}

void DagEngine::stage_finished(std::size_t s) {
  metrics_.stages[s].end = queue_.now();
  if (--stages_left_ == 0) metrics_.runtime = queue_.now();
  for (std::size_t e : dag_.out_edges(s)) deliver_edge(e);
}

void DagEngine::deliver_edge(std::size_t e) {
  const Edge& edge = dag_.edges()[e];
  StageState& up = states_[edge.from];
  StageState& down = states_[edge.to];

  // Enumerate the transfers this edge performs.
  struct Transfer {
    std::size_t from_task;
    std::size_t to_task;
    double bytes;
  };
  std::vector<Transfer> transfers;
  switch (edge.kind) {
    case EdgeKind::kShuffle:
      for (std::size_t i = 0; i < up.tasks.size(); ++i) {
        const double share =
            up.tasks[i].output_bytes / static_cast<double>(down.tasks.size());
        for (std::size_t j = 0; j < down.tasks.size(); ++j) {
          transfers.push_back(Transfer{i, j, share});
        }
      }
      break;
    case EdgeKind::kOneToOne:
      for (std::size_t i = 0; i < up.tasks.size(); ++i) {
        transfers.push_back(Transfer{i, i, up.tasks[i].output_bytes});
      }
      break;
    case EdgeKind::kBroadcast:
      for (std::size_t i = 0; i < up.tasks.size(); ++i) {
        for (std::size_t j = 0; j < down.tasks.size(); ++j) {
          transfers.push_back(Transfer{i, j, up.tasks[i].output_bytes});
        }
      }
      break;
  }

  edge_flows_left_[e] = transfers.size();
  if (transfers.empty()) {
    if (--states_[edge.to].inputs_pending == 0) maybe_start_stage(edge.to);
    return;
  }
  for (const Transfer& tr : transfers) {
    const std::size_t src = cluster_.vm(up.tasks[tr.from_task].vm).node;
    const std::size_t dst = cluster_.vm(down.tasks[tr.to_task].vm).node;
    down.tasks[tr.to_task].input_bytes += tr.bytes;
    net_.start_flow(src, dst, tr.bytes, [this, e, to = edge.to](sim::FlowId) {
      if (--edge_flows_left_[e] == 0) {
        if (--states_[to].inputs_pending == 0) maybe_start_stage(to);
      }
    });
  }
}

DagMetrics DagEngine::run() {
  if (ran_) throw std::logic_error("DagEngine::run: already ran");
  ran_ = true;
  for (std::size_t s = 0; s < dag_.stage_count(); ++s) {
    if (dag_.is_source(s)) maybe_start_stage(s);
  }
  queue_.run();
  if (stages_left_ != 0) {
    throw std::logic_error("DagEngine: dataflow did not complete");
  }
  metrics_.traffic = net_.stats();
  return metrics_;
}

}  // namespace vcopt::dataflow
