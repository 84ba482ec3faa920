#include "service/admission.hpp"

#include <algorithm>
#include <utility>

namespace drw::service {

AdmissionQueue::AdmissionQueue(AdmissionConfig config)
    : config_(config) {
  config_.quantum = std::max<std::uint64_t>(1, config_.quantum);
  config_.max_batch_cost = std::max<std::uint64_t>(1, config_.max_batch_cost);
  config_.min_batch_requests =
      std::max<std::uint32_t>(1, config_.min_batch_requests);
  class_names_.push_back("default");
  class_quanta_.push_back(config_.quantum);
}

std::uint32_t AdmissionQueue::intern_class(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < class_names_.size(); ++i) {
    if (class_names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  class_names_.push_back(name.empty() ? "default" : name);
  class_quanta_.push_back(config_.quantum);
  return static_cast<std::uint32_t>(class_names_.size() - 1);
}

void AdmissionQueue::set_class_quantum(std::uint32_t class_id,
                                       std::uint64_t quantum) {
  std::lock_guard<std::mutex> lock(mu_);
  if (class_id < class_quanta_.size()) {
    class_quanta_[class_id] = std::max<std::uint64_t>(1, quantum);
  }
}

std::string AdmissionQueue::class_name(std::uint32_t class_id) const {
  // By value: intern_class (the I/O thread, on any HELLO) can reallocate
  // class_names_ at any time, so a reference would dangle once mu_ drops.
  std::lock_guard<std::mutex> lock(mu_);
  return class_names_[class_id < class_names_.size() ? class_id : 0];
}

RequestStatus AdmissionQueue::enqueue(PendingRequest req) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || depth_ >= config_.queue_cap) {
    return RequestStatus::kQueueFull;
  }
  // Clamp to the batch budget: cost >= max_batch_cost already closes a
  // batch on its own, and an unclamped (saturated) cost would make the
  // DRR deficit take ~cost/quantum cycles to catch up.
  req.cost = std::min(request_cost(req.request), config_.max_batch_cost);
  req.seq = next_seq_++;
  Flow& flow = flows_[req.flow];
  flow.class_id = req.class_id;
  flow.orphaned = false;  // flow ids are unique, but stay safe on reuse
  flow.queue.push_back(std::move(req));
  ++depth_;
  cv_.notify_one();
  return RequestStatus::kOk;
}

bool AdmissionQueue::wait_for_work() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return depth_ > 0 || closed_; });
  return depth_ > 0 || !closed_;
}

std::vector<PendingRequest> AdmissionQueue::drain(
    double now_ms, std::vector<AdmissionReject>* rejects) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PendingRequest> out;
  std::uint64_t cost = 0;

  auto expired = [&](const PendingRequest& r) {
    return r.deadline_ms != 0 &&
           now_ms - r.arrival_ms > static_cast<double>(r.deadline_ms);
  };
  auto expire_head = [&](Flow& flow) {
    while (!flow.queue.empty() && expired(flow.queue.front())) {
      AdmissionReject rej;
      rej.request = std::move(flow.queue.front());
      rej.status = RequestStatus::kDeadlineExceeded;
      flow.queue.pop_front();
      --depth_;
      if (rejects != nullptr) rejects->push_back(std::move(rej));
    }
  };
  auto batch_full = [&] {
    return cost >= config_.max_batch_cost &&
           out.size() >= config_.min_batch_requests;
  };
  auto admit_head = [&](Flow& flow) {
    PendingRequest r = std::move(flow.queue.front());
    flow.queue.pop_front();
    --depth_;
    r.admission_index = next_admission_index_++;
    cost += r.cost;
    out.push_back(std::move(r));
  };
  // Released flows whose backlog has drained leave the table here, so an
  // always-on server's flows_ tracks live connections, not history.
  auto reap_orphans = [&] {
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.orphaned && it->second.queue.empty()) {
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
  };

  if (config_.policy == AdmissionPolicy::kFifo) {
    // The unfair baseline: strict global arrival order, same batch sizing.
    while (depth_ > 0 && !batch_full()) {
      Flow* best = nullptr;
      for (auto& [id, flow] : flows_) {
        expire_head(flow);
        if (flow.queue.empty()) continue;
        if (best == nullptr ||
            flow.queue.front().seq < best->queue.front().seq) {
          best = &flow;
        }
      }
      if (best == nullptr) break;
      admit_head(*best);
    }
    reap_orphans();
    return out;
  }

  // Deficit round-robin: cycle flows in ascending id; each backlogged flow
  // earns its class quantum per cycle and admits while its head fits.
  while (depth_ > 0 && !batch_full()) {
    bool admitted_any = false;
    for (auto& [id, flow] : flows_) {
      expire_head(flow);
      if (flow.queue.empty()) {
        flow.deficit = 0;  // idle flows never hoard credit
        continue;
      }
      flow.deficit += quantum_of(flow);
      while (!flow.queue.empty() && !batch_full()) {
        expire_head(flow);
        if (flow.queue.empty()) break;
        if (flow.queue.front().cost > flow.deficit) break;
        flow.deficit -= flow.queue.front().cost;
        admit_head(flow);
        admitted_any = true;
      }
      if (batch_full()) break;
    }
    // Nothing fit anywhere this cycle: if the batch already has content,
    // close it (the leftovers' deficits persist into the next drain);
    // otherwise cycle again -- deficits grow by one quantum per cycle, so
    // a head costlier than any single quantum still admits eventually.
    if (!admitted_any && !out.empty()) break;
    if (!admitted_any && depth_ == 0) break;
  }
  reap_orphans();
  return out;
}

void AdmissionQueue::close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

void AdmissionQueue::release_flow(std::uint64_t flow) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  if (it->second.queue.empty()) {
    flows_.erase(it);
  } else {
    it->second.orphaned = true;  // drain() erases once the backlog serves
  }
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

std::uint64_t AdmissionQueue::admitted_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_admission_index_;
}

std::size_t AdmissionQueue::flow_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flows_.size();
}

}  // namespace drw::service
