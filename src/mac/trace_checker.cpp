#include "mac/trace_checker.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <unordered_map>
#include <utility>

namespace ammb::mac {

namespace {

using sim::TraceKind;
using sim::TraceRecord;

/// Closed interval [lo, hi], hi == kTimeNever meaning +infinity.
struct Interval {
  Time lo;
  Time hi;
};

/// Sorts and merges overlapping/adjacent intervals in place, dropping
/// empty ones.  The result is the canonical form of the point-set
/// union, so any two lists with the same union normalize alike.
void normalize(std::vector<Interval>& xs) {
  std::sort(xs.begin(), xs.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::size_t out = 0;
  for (const Interval x : xs) {
    if (x.hi != kTimeNever && x.hi < x.lo) continue;
    if (out > 0 && xs[out - 1].hi != kTimeNever &&
        x.lo <= xs[out - 1].hi + 1) {
      xs[out - 1].hi = (x.hi == kTimeNever)
                           ? kTimeNever
                           : std::max(xs[out - 1].hi, x.hi);
    } else if (out > 0 && xs[out - 1].hi == kTimeNever) {
      // Everything later is already covered.
      continue;
    } else {
      xs[out++] = x;
    }
  }
  xs.resize(out);
}

/// First point of `need` not covered by `cover` (both normalized), or
/// kTimeNever.
Time firstUncovered(const std::vector<Interval>& need,
                    const std::vector<Interval>& cover) {
  for (const Interval& nd : need) {
    Time t = nd.lo;
    for (const Interval& cv : cover) {
      if (nd.hi != kTimeNever && t > nd.hi) break;
      if (cv.lo > t) break;
      if (cv.hi == kTimeNever) {
        t = kTimeNever;
        break;
      }
      if (cv.hi >= t) t = cv.hi + 1;
    }
    if (t != kTimeNever && (nd.hi == kTimeNever || t <= nd.hi)) return t;
  }
  return kTimeNever;
}

/// Reconstructed per-instance facts (offline reference checker).
struct InstanceFacts {
  NodeId sender = kNoNode;
  Time bcastAt = 0;
  std::size_t bcastIdx = 0;
  bool terminated = false;
  bool aborted = false;
  Time termAt = kTimeNever;
  std::size_t termIdx = 0;
  std::vector<std::pair<NodeId, std::size_t>> rcvs;  // (receiver, index)
  std::vector<Time> rcvTimes;
};

class OfflineChecker {
 public:
  OfflineChecker(const graph::TopologyView& view, const MacParams& params,
                 const sim::Trace& trace, Time horizon)
      : view_(view), params_(params), trace_(trace), horizon_(horizon) {}

  CheckResult run() {
    scan();
    checkPerInstance();
    checkProgress();
    return std::move(result_);
  }

 private:
  void fail(std::string axiom, InstanceId instance, NodeId node, Time time,
            const std::string& msg) {
    result_.ok = false;
    result_.violations.push_back(msg);
    result_.records.push_back(
        Violation{std::move(axiom), instance, node, time, msg});
  }

  void scan() {
    // busy_[v] tracks the outstanding instance of node v, enforcing
    // user well-formedness in stream order.
    std::map<NodeId, InstanceId> busy;
    const auto& recs = trace_.records();
    for (std::size_t idx = 0; idx < recs.size(); ++idx) {
      const TraceRecord& r = recs[idx];
      switch (r.kind) {
        case TraceKind::kBcast: {
          if (busy.count(r.node) > 0) {
            fail("well-formedness", r.instance, r.node, r.t,
                 "well-formedness: node " + std::to_string(r.node) +
                     " bcast while instance " + std::to_string(busy[r.node]) +
                     " is outstanding");
          }
          busy[r.node] = r.instance;
          InstanceFacts f;
          f.sender = r.node;
          f.bcastAt = r.t;
          f.bcastIdx = idx;
          if (!facts_.emplace(r.instance, f).second) {
            fail("well-formedness", r.instance, r.node, r.t,
                 "duplicate bcast record for instance " +
                     std::to_string(r.instance));
          }
          break;
        }
        case TraceKind::kRcv: {
          auto it = facts_.find(r.instance);
          if (it == facts_.end()) {
            fail("rcv-unknown-instance", r.instance, r.node, r.t,
                 "rcv for unknown instance " + std::to_string(r.instance));
            break;
          }
          it->second.rcvs.emplace_back(r.node, idx);
          it->second.rcvTimes.push_back(r.t);
          break;
        }
        case TraceKind::kAck:
        case TraceKind::kAbort: {
          auto it = facts_.find(r.instance);
          if (it == facts_.end()) {
            fail("term-unknown-instance", r.instance, r.node, r.t,
                 "termination for unknown instance " +
                     std::to_string(r.instance));
            break;
          }
          InstanceFacts& f = it->second;
          if (f.terminated) {
            fail("term-duplicate", r.instance, r.node, r.t,
                 "instance " + std::to_string(r.instance) +
                     " terminated twice");
          }
          f.terminated = true;
          f.aborted = (r.kind == TraceKind::kAbort);
          f.termAt = r.t;
          f.termIdx = idx;
          auto bit = busy.find(r.node);
          if (bit == busy.end() || bit->second != r.instance) {
            fail("term-not-outstanding", r.instance, r.node, r.t,
                 "termination of instance " + std::to_string(r.instance) +
                     " which is not the outstanding bcast of node " +
                     std::to_string(r.node));
          } else {
            busy.erase(bit);
          }
          break;
        }
        default:
          break;
      }
    }
  }

  void checkPerInstance() {
    for (const auto& [id, f] : facts_) {
      // Receive correctness.
      std::set<NodeId> seen;
      for (std::size_t i = 0; i < f.rcvs.size(); ++i) {
        const auto& [receiver, idx] = f.rcvs[i];
        const Time at = f.rcvTimes[i];
        if (receiver == f.sender) {
          fail("rcv-at-sender", id, receiver, at,
               "instance " + std::to_string(id) + " delivered to its sender");
        }
        // Legality is judged in the epoch the delivery happened: a
        // link that existed at bcast but had vanished by `at` (or a
        // crashed endpoint — dead nodes have empty adjacency) makes
        // the rcv illegal, and vice versa for links that appeared.
        if (!view_.dualAt(view_.epochAt(at))
                 .gPrime()
                 .hasEdge(f.sender, receiver)) {
          fail("rcv-off-gprime", id, receiver, at,
               "instance " + std::to_string(id) +
                   " delivered outside G' (of the epoch at t=" +
                   std::to_string(at) + ") to node " +
                   std::to_string(receiver));
        }
        if (!seen.insert(receiver).second) {
          fail("rcv-duplicate", id, receiver, at,
               "instance " + std::to_string(id) + " delivered twice to node " +
                   std::to_string(receiver));
        }
        if (idx < f.bcastIdx) {
          fail("rcv-before-bcast", id, receiver, at,
               "instance " + std::to_string(id) + " rcv precedes its bcast");
        }
        if (f.terminated && !f.aborted && idx > f.termIdx) {
          fail("rcv-after-ack", id, receiver, at,
               "instance " + std::to_string(id) + " rcv after its ack");
        }
        if (f.terminated && f.aborted && at > f.termAt + params_.epsAbort) {
          fail("rcv-after-abort", id, receiver, at,
               "instance " + std::to_string(id) +
                   " rcv more than epsAbort after its abort");
        }
      }
      // Acknowledgment correctness + ack bound.  The guarantee is
      // quantified over the bcast-epoch G-neighbors whose link stayed
      // in E (both endpoints alive) for the whole [bcast, ack] window;
      // a link that dropped mid-flight voids the obligation even if it
      // later returned (the engine never re-arms a dropped guarantee).
      if (f.terminated && !f.aborted) {
        const graph::DualGraph& bcastTopo =
            view_.dualAt(view_.epochAt(f.bcastAt));
        for (NodeId j : bcastTopo.g().neighbors(f.sender)) {
          if (!view_.gEdgeLiveThroughout(f.sender, j, f.bcastAt, f.termAt)) {
            continue;
          }
          bool found = false;
          for (std::size_t i = 0; i < f.rcvs.size(); ++i) {
            if (f.rcvs[i].first == j && f.rcvs[i].second < f.termIdx) {
              found = true;
              break;
            }
          }
          if (!found) {
            fail("ack-before-rcv", id, j, f.termAt,
                 "instance " + std::to_string(id) +
                     " acked before G-neighbor " + std::to_string(j) +
                     " received it");
          }
        }
        if (f.termAt - f.bcastAt > params_.fack) {
          fail("ack-bound", id, f.sender, f.termAt,
               "instance " + std::to_string(id) + " violated the ack bound (" +
                   std::to_string(f.termAt - f.bcastAt) + " > Fack)");
        }
      }
      // Termination.  Strict comparison: an instance whose Fack budget
      // expires exactly at the horizon may still ack at that instant
      // (runs stopped mid-tick by solve detection hit this boundary).
      if (!f.terminated && f.bcastAt + params_.fack < horizon_) {
        fail("termination", id, f.sender, f.bcastAt + params_.fack,
             "instance " + std::to_string(id) +
                 " never terminated although its Fack budget expired before "
                 "the horizon");
      }
    }
  }

  /// Appends the need intervals of one (instance, receiver) pair: one
  /// interval per maximal run of epochs throughout which the E-link is
  /// live, clipped to [bcastAt, termClip].  A window [t, t+Fprog] is
  /// only owed when it fits inside such a span — the online guard
  /// stands down at the boundary that takes the link away, and a link
  /// that (re)appears only obliges from its comeback epoch.
  void appendNeedSpans(const InstanceFacts& f, NodeId j, Time termClip,
                       std::vector<Interval>& need) const {
    const Time fprog = params_.fprog;
    if (termClip < f.bcastAt) return;
    const int e2 = view_.epochAt(termClip);
    int e = view_.epochAt(f.bcastAt);
    while (e <= e2) {
      if (!view_.dualAt(e).g().hasEdge(f.sender, j)) {
        ++e;
        continue;
      }
      int last = e;
      while (last + 1 <= e2 &&
             view_.dualAt(last + 1).g().hasEdge(f.sender, j)) {
        ++last;
      }
      const Time lo = std::max(f.bcastAt, view_.epochStart(e));
      Time hi = termClip;
      if (last + 1 < view_.epochCount()) {
        hi = std::min(hi, view_.epochStart(last + 1));
      }
      hi -= fprog + 1;
      if (hi >= lo) need.push_back({lo, hi});
      e = last + 1;
    }
  }

  void checkProgress() {
    const Time fprog = params_.fprog;
    for (NodeId j = 0; j < view_.n(); ++j) {
      std::vector<Interval> need;
      std::vector<Interval> cover;
      for (const auto& [id, f] : facts_) {
        (void)id;
        const Time term =
            f.terminated ? f.termAt : std::max(horizon_, f.bcastAt);
        appendNeedSpans(f, j, std::min(term, horizon_), need);
        for (std::size_t i = 0; i < f.rcvs.size(); ++i) {
          if (f.rcvs[i].first != j) continue;
          const Time d = f.rcvTimes[i];
          // A receive covers iff it was a contending (E'-link live at
          // delivery time) instance — the epoch-aware spelling of the
          // static G'-neighbor filter.
          if (!view_.dualAt(view_.epochAt(d))
                   .gPrime()
                   .hasEdge(f.sender, j)) {
            continue;
          }
          const Time hi = f.terminated ? f.termAt - 1 : kTimeNever;
          cover.push_back({d - fprog, hi});
        }
      }
      normalize(need);
      normalize(cover);
      const Time t = firstUncovered(need, cover);
      if (t != kTimeNever) {
        fail("progress-bound", kNoInstance, j, t,
             "progress bound violated at receiver " + std::to_string(j) +
                 ": window starting at t=" + std::to_string(t) +
                 " has a broadcasting G-neighbor but no covering rcv");
      }
    }
  }

  const graph::TopologyView& view_;
  const MacParams& params_;
  const sim::Trace& trace_;
  Time horizon_;
  CheckResult result_;
  std::map<InstanceId, InstanceFacts> facts_;
};

}  // namespace

// --- streaming checker -------------------------------------------------------
//
// Mirrors the offline reference record for record, holding O(n + live
// instances) of state.  Each instance lives in a pooled slot, found
// through an id index: active until its terminating record, then a
// tomb until the stream moves past termAt + max(epsAbort, Fack), so
// deliveries inside the epsAbort window (legal for aborts, violations
// for acks) stay attributable.  A slot's receive list is both its
// seen-set and, while active, the contending receives whose cover end
// the termination fixes; a reused slot keeps its capacity, so a receive
// allocates nothing.
//
// The per-receiver progress algebra is decided behind the frontier
// F = min(last fed time, oldest active bcastAt) - Fprog.  With records
// in nondecreasing time no interval pushed later starts below F: a need
// span starts at or after its bcast, a cover at its receive - Fprog,
// and an active instance's receives follow its bcast.  When a
// receiver's lists fill up they are normalized: an uncovered need point
// below F is final and becomes the receiver's verdict; otherwise every
// need point below F is covered, and that part of the lists is dropped.
//
// Violations are buffered in three tiers so the assembled result is
// byte-identical to the offline scan / per-instance / progress pass
// order: stream-order scan violations, per-instance receive +
// termination buffers keyed by instance id, and the progress verdicts
// at finish().

struct TraceChecker::Impl {
  /// Combined need + cover length at which a receiver's lists are
  /// first normalized and retired; afterwards twice what remained.
  static constexpr std::size_t kRetireAt = 8;
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// One receive of a slot's instance; `contending` marks a delivery
  /// over an E'-link live at `at`, which covers the receiver.
  struct Rcv {
    Time at;
    NodeId node;
    bool contending;
  };

  /// Per-instance state, pooled: active until the terminating record,
  /// then a tomb until it expires.
  struct Slot {
    InstanceId id = kNoInstance;
    NodeId sender = kNoNode;
    bool active = false;
    bool aborted = false;
    Time bcastAt = 0;
    Time termAt = 0;
    /// Every receive so far, in stream order.
    std::vector<Rcv> rcvs;

    bool saw(NodeId node) const {
      return std::any_of(rcvs.begin(), rcvs.end(),
                         [node](const Rcv& x) { return x.node == node; });
    }
  };

  /// One receiver's progress algebra.  Once its first uncovered need
  /// point falls behind the frontier it is `verdict`: the lists are
  /// dropped and later pushes ignored.
  struct Receiver {
    std::vector<Interval> need;
    std::vector<Interval> cover;
    std::size_t retireAt = kRetireAt;
    Time verdict = kTimeNever;
  };

  struct PerInstanceV {
    std::vector<Violation> rcvV;   ///< receive-correctness, in rcv order
    std::vector<Violation> termV;  ///< ack/termination axioms
  };

  Impl(const graph::TopologyView& view, const MacParams& params,
       Time horizonClip)
      : view_(view),
        params_(params),
        horizonClip_(horizonClip),
        busy_(static_cast<std::size_t>(view.n())),
        receivers_(static_cast<std::size_t>(view.n())),
        candMark_(static_cast<std::size_t>(view.n()), 0) {}

  void fail(std::vector<Violation>& into, std::string axiom,
            InstanceId instance, NodeId node, Time time,
            const std::string& msg) {
    into.push_back(Violation{std::move(axiom), instance, node, time, msg});
  }

  bool inRange(NodeId node) const { return node >= 0 && node < view_.n(); }

  std::uint32_t slotOf(InstanceId id) const {
    const auto it = index_.find(id);
    return it == index_.end() ? kNoSlot : it->second;
  }

  void expireTombs(Time now) {
    while (!expiry_.empty() && expiry_.top().first < now) {
      const std::uint32_t s = expiry_.top().second;
      expiry_.pop();
      index_.erase(slots_[s].id);
      slots_[s].rcvs.clear();
      freeSlots_.push_back(s);
    }
  }

  void feed(const TraceRecord& r) {
    lastFedT_ = r.t;
    expireTombs(r.t);
    switch (r.kind) {
      case TraceKind::kBcast: onBcast(r); break;
      case TraceKind::kRcv: onRcv(r); break;
      case TraceKind::kAck:
      case TraceKind::kAbort: onTerm(r); break;
      default: break;
    }
  }

  void onBcast(const TraceRecord& r) {
    // A node outside [0, n) never has an outstanding bcast.
    if (inRange(r.node)) {
      std::optional<InstanceId>& busy = busy_[static_cast<std::size_t>(r.node)];
      if (busy.has_value()) {
        fail(scanV_, "well-formedness", r.instance, r.node, r.t,
             "well-formedness: node " + std::to_string(r.node) +
                 " bcast while instance " + std::to_string(*busy) +
                 " is outstanding");
      }
      busy = r.instance;
    }
    if (index_.count(r.instance) > 0) {
      fail(scanV_, "well-formedness", r.instance, r.node, r.t,
           "duplicate bcast record for instance " +
               std::to_string(r.instance));
      return;
    }
    std::uint32_t s;
    if (freeSlots_.empty()) {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      s = freeSlots_.back();
      freeSlots_.pop_back();
    }
    Slot& slot = slots_[s];
    slot.id = r.instance;
    slot.sender = r.node;
    slot.active = true;
    slot.aborted = false;
    slot.bcastAt = r.t;
    // Reserving the sender's E' fan-out, the receives its epoch allows,
    // keeps the list from growing by doubling.
    if (inRange(r.node)) {
      slot.rcvs.reserve(
          view_.dualAt(view_.epochAt(r.t)).gPrime().degree(r.node));
    }
    index_.emplace(r.instance, s);
    oldestActiveBcast();  // pops stale heads, so the FIFO stays O(live)
    bcastOrder_.emplace_back(r.t, r.instance);
  }

  void onRcv(const TraceRecord& r) {
    const std::uint32_t s = slotOf(r.instance);
    if (s == kNoSlot) {
      fail(scanV_, "rcv-unknown-instance", r.instance, r.node, r.t,
           "rcv for unknown instance " + std::to_string(r.instance));
      return;
    }
    Slot& slot = slots_[s];
    rcvScratchV_.clear();
    if (r.node == slot.sender) {
      fail(rcvScratchV_, "rcv-at-sender", r.instance, r.node, r.t,
           "instance " + std::to_string(r.instance) +
               " delivered to its sender");
    }
    const bool onGPrime = view_.dualAt(view_.epochAt(r.t))
                              .gPrime()
                              .hasEdge(slot.sender, r.node);
    if (!onGPrime) {
      fail(rcvScratchV_, "rcv-off-gprime", r.instance, r.node, r.t,
           "instance " + std::to_string(r.instance) +
               " delivered outside G' (of the epoch at t=" +
               std::to_string(r.t) + ") to node " + std::to_string(r.node));
    }
    if (slot.saw(r.node)) {
      fail(rcvScratchV_, "rcv-duplicate", r.instance, r.node, r.t,
           "instance " + std::to_string(r.instance) +
               " delivered twice to node " + std::to_string(r.node));
    }
    if (!slot.active && !slot.aborted) {
      fail(rcvScratchV_, "rcv-after-ack", r.instance, r.node, r.t,
           "instance " + std::to_string(r.instance) + " rcv after its ack");
    }
    if (!slot.active && slot.aborted &&
        r.t > slot.termAt + params_.epsAbort) {
      fail(rcvScratchV_, "rcv-after-abort", r.instance, r.node, r.t,
           "instance " + std::to_string(r.instance) +
               " rcv more than epsAbort after its abort");
    }
    slot.rcvs.push_back({r.t, r.node, onGPrime});
    // Clean receives (the overwhelming case) never touch the map.
    if (!rcvScratchV_.empty()) {
      auto& rcvV = perInstanceV_[r.instance].rcvV;
      for (Violation& v : rcvScratchV_) rcvV.push_back(std::move(v));
    }
    // A tomb's contending deliveries still cover, with the upper end
    // the termination already fixed.
    if (!slot.active && onGPrime) {
      push(&Receiver::cover, r.node, {r.t - params_.fprog, slot.termAt - 1});
    }
  }

  void onTerm(const TraceRecord& r) {
    const std::uint32_t s = slotOf(r.instance);
    if (s == kNoSlot) {
      fail(scanV_, "term-unknown-instance", r.instance, r.node, r.t,
           "termination for unknown instance " + std::to_string(r.instance));
      return;
    }
    if (!slots_[s].active) {
      fail(scanV_, "term-duplicate", r.instance, r.node, r.t,
           "instance " + std::to_string(r.instance) + " terminated twice");
      checkTermOutstanding(r);
      return;
    }
    checkTermOutstanding(r);
    Slot& slot = slots_[s];
    const bool aborted = (r.kind == TraceKind::kAbort);
    if (!aborted) {
      rcvScratchV_.clear();
      const graph::DualGraph& bcastTopo =
          view_.dualAt(view_.epochAt(slot.bcastAt));
      for (NodeId j : bcastTopo.g().neighbors(slot.sender)) {
        if (!view_.gEdgeLiveThroughout(slot.sender, j, slot.bcastAt, r.t)) {
          continue;
        }
        if (!slot.saw(j)) {
          fail(rcvScratchV_, "ack-before-rcv", r.instance, j, r.t,
               "instance " + std::to_string(r.instance) +
                   " acked before G-neighbor " + std::to_string(j) +
                   " received it");
        }
      }
      if (r.t - slot.bcastAt > params_.fack) {
        fail(rcvScratchV_, "ack-bound", r.instance, slot.sender, r.t,
             "instance " + std::to_string(r.instance) +
                 " violated the ack bound (" +
                 std::to_string(r.t - slot.bcastAt) + " > Fack)");
      }
      if (!rcvScratchV_.empty()) {
        auto& termV = perInstanceV_[r.instance].termV;
        for (Violation& v : rcvScratchV_) termV.push_back(std::move(v));
      }
    }
    // Progress bookkeeping: the instance's need spans and the upper
    // end of its covers are fixed by the terminating event.  The slot
    // stays active until both are pushed, so the frontier holds.
    const Time termClip =
        horizonClip_ == kTimeNever ? r.t : std::min(r.t, horizonClip_);
    flushInstance(slot, termClip, r.t - 1);
    maxTermAt_ = std::max(maxTermAt_, r.t);
    slot.active = false;
    slot.aborted = aborted;
    slot.termAt = r.t;
    expiry_.push({r.t + std::max(params_.epsAbort, params_.fack), s});
  }

  void checkTermOutstanding(const TraceRecord& r) {
    if (inRange(r.node) &&
        busy_[static_cast<std::size_t>(r.node)] == r.instance) {
      busy_[static_cast<std::size_t>(r.node)].reset();
    } else {
      fail(scanV_, "term-not-outstanding", r.instance, r.node, r.t,
           "termination of instance " + std::to_string(r.instance) +
               " which is not the outstanding bcast of node " +
               std::to_string(r.node));
    }
  }

  /// bcastAt of the oldest active instance, or kTimeNever.  Pops FIFO
  /// heads whose instance is no longer active.
  Time oldestActiveBcast() {
    while (!bcastOrder_.empty()) {
      const auto [at, id] = bcastOrder_.front();
      const std::uint32_t s = slotOf(id);
      if (s != kNoSlot && slots_[s].active && slots_[s].bcastAt == at) {
        return at;
      }
      bcastOrder_.pop_front();
    }
    return kTimeNever;
  }

  /// Below this point every receiver's need and cover sets are final.
  Time frontier() {
    return std::min(lastFedT_, oldestActiveBcast()) - params_.fprog;
  }

  void push(std::vector<Interval> Receiver::*list, NodeId j, Interval x) {
    Receiver& rc = receivers_[static_cast<std::size_t>(j)];
    if (rc.verdict != kTimeNever) return;
    (rc.*list).push_back(x);
    if (rc.need.size() + rc.cover.size() >= rc.retireAt) retire(rc);
  }

  /// Normalizes a receiver's lists and decides everything below the
  /// frontier: a verdict if a need point there is uncovered, else the
  /// part below it is dropped.
  void retire(Receiver& rc) {
    normalize(rc.need);
    normalize(rc.cover);
    const Time f = frontier();
    const Time t = firstUncovered(rc.need, rc.cover);
    if (t < f) {
      rc.verdict = t;
      std::vector<Interval>().swap(rc.need);
      std::vector<Interval>().swap(rc.cover);
      return;
    }
    for (std::vector<Interval>* xs : {&rc.need, &rc.cover}) {
      xs->erase(std::remove_if(xs->begin(), xs->end(),
                               [f](const Interval& x) {
                                 return x.hi != kTimeNever && x.hi < f;
                               }),
                xs->end());
      for (Interval& x : *xs) x.lo = std::max(x.lo, f);
    }
    rc.retireAt = std::max(kRetireAt, 2 * (rc.need.size() + rc.cover.size()));
  }

  /// Pushes one instance's need spans, clipped to termClip, and its
  /// contending receives as covers ending at coverHi.
  void flushInstance(const Slot& slot, Time termClip, Time coverHi) {
    flushNeedSpans(slot.sender, slot.bcastAt, termClip);
    for (const Rcv& x : slot.rcvs) {
      if (x.contending) {
        push(&Receiver::cover, x.node, {x.at - params_.fprog, coverHi});
      }
    }
  }

  /// The offline appendNeedSpans, parameterized by (sender, bcastAt):
  /// one interval per maximal run of epochs throughout which the
  /// E-link is live, clipped to [bcastAt, termClip].
  void appendNeedSpans(NodeId sender, Time bcastAt, NodeId j, Time termClip) {
    const Time fprog = params_.fprog;
    if (termClip < bcastAt) return;
    const int e2 = view_.epochAt(termClip);
    int e = view_.epochAt(bcastAt);
    while (e <= e2) {
      if (!view_.dualAt(e).g().hasEdge(sender, j)) {
        ++e;
        continue;
      }
      int last = e;
      while (last + 1 <= e2 && view_.dualAt(last + 1).g().hasEdge(sender, j)) {
        ++last;
      }
      const Time lo = std::max(bcastAt, view_.epochStart(e));
      Time hi = termClip;
      if (last + 1 < view_.epochCount()) {
        hi = std::min(hi, view_.epochStart(last + 1));
      }
      hi -= fprog + 1;
      if (hi >= lo) push(&Receiver::need, j, {lo, hi});
      e = last + 1;
    }
  }

  /// Flushes one instance's need spans into the per-receiver algebra.
  /// Candidates are the union of the sender's G-neighbors over the
  /// epochs the window touches — non-neighbors produce no spans in the
  /// offline all-receivers sweep, so restricting to candidates yields
  /// the identical interval multiset at O(degree · epochs) cost.
  void flushNeedSpans(NodeId sender, Time bcastAt, Time termClip) {
    if (termClip < bcastAt) return;
    const int e2 = view_.epochAt(termClip);
    candScratch_.clear();
    for (int e = view_.epochAt(bcastAt); e <= e2; ++e) {
      for (NodeId j : view_.dualAt(e).g().neighbors(sender)) {
        if (candMark_[static_cast<std::size_t>(j)] == 0) {
          candMark_[static_cast<std::size_t>(j)] = 1;
          candScratch_.push_back(j);
        }
      }
    }
    for (NodeId j : candScratch_) {
      candMark_[static_cast<std::size_t>(j)] = 0;
      appendNeedSpans(sender, bcastAt, j, termClip);
    }
  }

  TraceChecker::LiveState liveState() const {
    TraceChecker::LiveState state;
    state.instances = slots_.size() - freeSlots_.size();
    for (const Receiver& rc : receivers_) {
      if (rc.verdict != kTimeNever) ++state.decidedReceivers;
      state.intervals += rc.need.size() + rc.cover.size();
    }
    return state;
  }

  CheckResult finish(Time horizon) {
    if (horizon == kTimeNever) {
      horizon = horizonClip_ != kTimeNever ? horizonClip_ : lastFedT_;
    }
    // The at-term need flushes assumed min(termAt, horizon) == termAt
    // when no clip was given; engine-committed traces (monotone
    // timestamps, horizon at or past the last record) satisfy this.
    AMMB_ASSERT(horizonClip_ != kTimeNever || horizon >= maxTermAt_);
    for (const Slot& slot : slots_) {
      if (!slot.active) continue;
      if (slot.bcastAt + params_.fack < horizon) {
        fail(perInstanceV_[slot.id].termV, "termination", slot.id,
             slot.sender, slot.bcastAt + params_.fack,
             "instance " + std::to_string(slot.id) +
                 " never terminated although its Fack budget expired before "
                 "the horizon");
      }
      flushInstance(slot, horizon, kTimeNever);
    }
    CheckResult result;
    auto emit = [&result](const Violation& v) {
      result.ok = false;
      result.violations.push_back(v.detail);
      result.records.push_back(v);
    };
    for (const Violation& v : scanV_) emit(v);
    for (const auto& [id, bufs] : perInstanceV_) {
      (void)id;
      for (const Violation& v : bufs.rcvV) emit(v);
      for (const Violation& v : bufs.termV) emit(v);
    }
    for (NodeId j = 0; j < view_.n(); ++j) {
      Receiver& rc = receivers_[static_cast<std::size_t>(j)];
      Time t = rc.verdict;
      if (t == kTimeNever) {
        normalize(rc.need);
        normalize(rc.cover);
        t = firstUncovered(rc.need, rc.cover);
      }
      if (t != kTimeNever) {
        emit(Violation{
            "progress-bound", kNoInstance, j, t,
            "progress bound violated at receiver " + std::to_string(j) +
                ": window starting at t=" + std::to_string(t) +
                " has a broadcasting G-neighbor but no covering rcv"});
      }
    }
    return result;
  }

  const graph::TopologyView& view_;
  const MacParams params_;
  Time horizonClip_;

  /// [node] the outstanding instance, if any.
  std::vector<std::optional<InstanceId>> busy_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
  /// Instance id to slot.  Hand-built traces use arbitrary ids, so
  /// nothing assumes they are dense.
  std::unordered_map<InstanceId, std::uint32_t> index_;
  /// (bcastAt, id) in bcast order; the first entry still active gives
  /// the frontier.
  std::deque<std::pair<Time, InstanceId>> bcastOrder_;
  /// (expiry time, slot) min-heap; a tomb expires once the stream
  /// moves past termAt + max(epsAbort, Fack).
  std::priority_queue<std::pair<Time, std::uint32_t>,
                      std::vector<std::pair<Time, std::uint32_t>>,
                      std::greater<std::pair<Time, std::uint32_t>>>
      expiry_;

  std::vector<Violation> scanV_;
  std::map<InstanceId, PerInstanceV> perInstanceV_;
  /// Per-record violation scratch (empty on the clean hot path).
  std::vector<Violation> rcvScratchV_;

  std::vector<Receiver> receivers_;
  std::vector<char> candMark_;
  std::vector<NodeId> candScratch_;

  Time lastFedT_ = 0;
  Time maxTermAt_ = 0;
};

TraceChecker::TraceChecker(const graph::TopologyView& view,
                           const MacParams& params, Time horizonClip)
    : impl_(std::make_unique<Impl>(view, params, horizonClip)) {}

TraceChecker::~TraceChecker() = default;

void TraceChecker::feed(const sim::TraceRecord& record) {
  impl_->feed(record);
}

CheckResult TraceChecker::finish(Time horizon) {
  return impl_->finish(horizon);
}

TraceChecker::LiveState TraceChecker::liveState() const {
  return impl_->liveState();
}

CheckResult checkTrace(const graph::TopologyView& view,
                       const MacParams& params, const sim::Trace& trace,
                       Time horizon) {
  AMMB_REQUIRE(trace.enabled(),
               "checkTrace requires a trace that recorded events");
  if (horizon == kTimeNever) horizon = trace.lastTime();
  TraceChecker checker(view, params, horizon);
  trace.forEach([&checker](const TraceRecord& r) { checker.feed(r); });
  return checker.finish(horizon);
}

CheckResult checkTrace(const graph::DualGraph& topology,
                       const MacParams& params, const sim::Trace& trace,
                       Time horizon) {
  const graph::TopologyView view(topology);
  return checkTrace(view, params, trace, horizon);
}

CheckResult checkTraceOffline(const graph::TopologyView& view,
                              const MacParams& params, const sim::Trace& trace,
                              Time horizon) {
  AMMB_REQUIRE(trace.enabled(),
               "checkTrace requires a trace that recorded events");
  if (horizon == kTimeNever) {
    horizon = trace.records().empty() ? 0 : trace.records().back().t;
  }
  OfflineChecker checker(view, params, trace, horizon);
  return checker.run();
}

}  // namespace ammb::mac
