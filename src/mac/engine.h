// The abstract MAC layer engine.
//
// MacEngine composes a dual-graph topology, a message scheduler, and
// one Process automaton per node into an executable system.  It
// implements the model of Section 2 / 3.2.1 of the paper:
//
//   * acknowledged local broadcast with guaranteed delivery to all
//     G-neighbors and scheduler-chosen delivery to G'-neighbors;
//   * the Fack acknowledgment bound and the Fprog progress bound
//     (enforced online by ProgressGuard, re-checkable offline with
//     TraceChecker);
//   * the standard / enhanced model split: timers, now(), Fack/Fprog
//     knowledge and abort are rejected under ModelVariant::kStandard;
//   * environment arrive(m) inputs and protocol deliver(m) outputs.
//
// Determinism: given (topology, params, scheduler, process factory,
// seed), executions are bit-for-bit reproducible.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "graph/topology_view.h"
#include "mac/instance.h"
#include "mac/layer.h"
#include "mac/oracle.h"
#include "mac/params.h"
#include "mac/process.h"
#include "mac/progress_guard.h"
#include "mac/scheduler.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace ammb::sim {

/// An empty placeholder for the removed intra-run kernel option.  It
/// stays only because the benchmark harness under perfbench/ still
/// passes `RunConfig::kernel` as MacEngine's seventh argument; it goes,
/// with that argument, in the next change to the benchmark.
struct KernelSpec {};

}  // namespace ammb::sim

namespace ammb::mac {

/// Aggregate counters of a run.
struct EngineStats {
  std::uint64_t bcasts = 0;
  std::uint64_t rcvs = 0;
  std::uint64_t forcedRcvs = 0;  ///< deliveries forced by the guard
  std::uint64_t acks = 0;
  std::uint64_t aborts = 0;
  std::uint64_t delivers = 0;
  std::uint64_t arrives = 0;
};

/// The simulation engine for one execution.  Implements MacLayer, the
/// execution seam Context routes through, so protocol automata run
/// identically over this engine and the real network backend.
class MacEngine : public MacLayer {
 public:
  using ProcessFactory = std::function<std::unique_ptr<Process>(NodeId)>;
  /// Hook fired on every protocol deliver(m) output.
  using DeliverHook = std::function<void(NodeId, MsgId, Time)>;
  /// Hook fired on every environment arrive(m) input, before the
  /// process reacts to it (so solve trackers see the arrival first).
  using ArriveHook = std::function<void(NodeId, MsgId, Time)>;
  /// One environment arrival pulled from a lazy source.
  struct ArrivalEvent {
    NodeId node = kNoNode;
    MsgId msg = kNoMsg;
    Time at = 0;
  };
  /// Pull-based arrival stream: nullopt means exhausted.
  using ArrivalSource = std::function<std::optional<ArrivalEvent>()>;

  /// Wires the system together and schedules the wake events at t=0
  /// plus one internal transition event per topology epoch.  The view
  /// must outlive the engine.  The sim::KernelSpec argument is ignored.
  /// `traceMode` selects the record storage backend (in-memory vector
  /// or disk spool — sim/trace.h).
  MacEngine(const graph::TopologyView& view, MacParams params,
            std::unique_ptr<Scheduler> scheduler, ProcessFactory factory,
            std::uint64_t seed, bool traceEnabled = true,
            sim::KernelSpec kernel = {}, sim::TraceMode traceMode = {});

  /// Static-topology convenience: wraps `topology` in an owned
  /// single-epoch view, which borrows it and copies no adjacency.  The
  /// topology must outlive the engine.
  MacEngine(const graph::DualGraph& topology, MacParams params,
            std::unique_ptr<Scheduler> scheduler, ProcessFactory factory,
            std::uint64_t seed, bool traceEnabled = true,
            sim::KernelSpec kernel = {}, sim::TraceMode traceMode = {});

  MacEngine(const MacEngine&) = delete;
  MacEngine& operator=(const MacEngine&) = delete;

  // --- environment ----------------------------------------------------
  /// Injects an arrive(m) event at `node` at time `at` (>= now).  The
  /// MMB problem injects everything at t=0; online arrivals are the
  /// generalization mentioned in Section 2.
  void injectArriveAt(NodeId node, MsgId msg, Time at);

  /// Registers a pull-based arrival stream and schedules its first
  /// arrival.  The engine keeps exactly one pending arrival event in
  /// the queue: when it fires, the next arrival is pulled and
  /// scheduled — so arbitrarily long (or open-ended) streams cost O(1)
  /// queue space.  The source must yield nondecreasing times >= now().
  void setArrivalSource(ArrivalSource source);

  /// Runs until drained / stopped / past `timeLimit`.
  sim::RunStatus run(Time timeLimit = kTimeNever,
                     std::uint64_t maxEvents = 250'000'000);

  /// Requests the current run to stop after the ongoing event.
  void requestStop() { queue_.requestStop(); }

  // --- hooks ------------------------------------------------------------
  /// Registers the deliver-output observer (e.g., solve detection).
  void setDeliverHook(DeliverHook hook) { deliverHook_ = std::move(hook); }

  /// Registers the arrive-input observer (e.g., latency tracking).
  void setArriveHook(ArriveHook hook) { arriveHook_ = std::move(hook); }

  /// Enables/disables online scheduler-plan validation (on by default).
  /// Only the fuzzing subsystem's mutation fixtures turn this off: a
  /// deliberately broken scheduler is then allowed to produce an
  /// axiom-violating execution, which the offline trace checker (and
  /// the check:: oracles built on it) must catch.  Everything else
  /// must leave validation on — it is what makes the engine's
  /// executions trustworthy regardless of the scheduler.
  void setPlanValidation(bool on) { validatePlans_ = on; }

  /// True while illegal delivery plans are rejected online.
  bool planValidation() const { return validatePlans_; }

  /// Enables/disables the per-node Process::onEpochChange notification
  /// at epoch boundaries (on by default).  Only the fuzzing
  /// subsystem's kDropOnRecovery mutation fixture turns this off: it
  /// models exactly the pre-reaction bug class — a stack that never
  /// re-arms after a boundary — which the recovery-aware liveness
  /// oracle must flag.  Honest runs must leave notification on.
  void setEpochNotification(bool on) { epochNotifications_ = on; }

  /// True while epoch boundaries notify the automatons.
  bool epochNotification() const { return epochNotifications_; }

  /// Registers the protocol oracle consulted by adversarial schedulers.
  void setOracle(const ProtocolOracle* oracle) { oracle_ = oracle; }

  /// The registered oracle, or nullptr.
  const ProtocolOracle* oracle() const { return oracle_; }

  // --- introspection ----------------------------------------------------
  Time now() const override { return queue_.now(); }
  /// The *current epoch's* topology.  Schedulers, processes and the
  /// guard all read this, so they are epoch-aware for free; on a
  /// static view it is the exact DualGraph the engine was built over.
  const graph::DualGraph& topology() const override { return *dual_; }
  /// The full epoch-indexed view (offline checkers need every epoch).
  const graph::TopologyView& view() const { return *view_; }
  /// The epoch covering now().
  int currentEpoch() const { return epoch_; }
  const MacParams& params() const override { return params_; }
  const sim::Trace& trace() const { return trace_; }
  /// Mutable trace access — the attachment point for streaming
  /// consumers (sim::Trace::attachConsumer) before run().
  sim::Trace& mutableTrace() { return trace_; }
  const EngineStats& stats() const { return stats_; }
  NodeId n() const override { return view_->n(); }

  /// The record of every instance ever created, indexed by InstanceId.
  const std::vector<InstanceRecord>& instances() const { return records_; }
  /// The record of instance `id` (settled or not).
  const InstanceRecord& record(InstanceId id) const;
  /// The body of instance `id`.  Throws once the instance has settled
  /// (terminated with nothing pending): its body is back in the pool,
  /// and only record(id) and the trace still describe it.
  const Instance& instance(InstanceId id) const;
  /// Bodies the pool has allocated, i.e. the most ever held at once.
  /// In the standard model with plan validation on, that is at most
  /// n + 1: one per node's unterminated bcast, plus a body still held
  /// during its own onAck.  In the enhanced model an aborted instance
  /// also keeps its body while grace deliveries are pending.
  std::size_t poolSize() const { return pool_.size(); }
  /// Nodes whose RNG stream has been seeded (on first Context::rng()).
  NodeId seededNodeRngs() const;

  /// The protocol automaton at `node` (for harness inspection).
  Process& processAt(NodeId node);
  const Process& processAt(NodeId node) const;

  /// RNG stream reserved for the scheduler.
  Rng& schedulerRng() { return schedulerRng_; }

  /// `node`'s unterminated broadcast, or kNoInstance.  A node has at
  /// most one, so the live instances that may legally deliver to a
  /// node j right now are exactly currentInstance(s) for each s in the
  /// current epoch's G'(j).
  InstanceId currentInstance(NodeId node) const {
    return state(node).current;
  }
  /// Live instances whose sender is a G'-neighbor of `node`, in id
  /// order (i.e., the instances that may legally deliver to `node`
  /// right now).
  std::vector<InstanceId> liveInstancesNear(NodeId node) const;

 private:
  friend class ProgressGuard;

  struct NodeState {
    std::unique_ptr<Process> process;
    /// Seeded on the node's first Context::rng() call from the same
    /// per-node stream, so draws are unchanged and a protocol that never
    /// draws costs no engine state (a std::optional would still embed
    /// the 2.5 KB engine in every node).
    std::unique_ptr<Rng> rng;
    InstanceId current = kNoInstance;  ///< outstanding bcast, if any
  };

  // Context services (MacLayer) -------------------------------------------
  void apiBcast(NodeId node, Packet packet) override;
  bool apiBusy(NodeId node) const override;
  void apiDeliver(NodeId node, MsgId msg) override;
  TimerId apiSetTimer(NodeId node, Time at) override;
  void apiAbort(NodeId node) override;
  void requireEnhanced(const char* api) const override;
  Rng& nodeRng(NodeId node) override;

  // Events ----------------------------------------------------------------
  /// What a queued sim::Event does, one kind per place that schedules
  /// one.  Its node and payload fields carry the operands named here.
  enum EventKind : std::uint8_t {
    kWakeEvent,          ///< node
    kArriveEvent,        ///< node, payload = msg (injectArriveAt)
    kStreamArriveEvent,  ///< node, payload = msg; pulls the next one
    kDeliveryEvent,      ///< node = receiver, payload = instance
    kAckEvent,           ///< payload = instance
    kTimerEvent,         ///< node, payload = timer id
    kEpochEvent,         ///< payload = epoch (node is kNoNode)
    kDeadlineEvent,      ///< node = receiver; posted by ProgressGuard
  };
  void dispatch(const sim::Event& event);
  void fireWake(NodeId node);
  void fireArrive(NodeId node, MsgId msg);
  void fireTimer(NodeId node, TimerId id);

  // Internal machinery ----------------------------------------------------
  void scheduleNextArrival();
  /// True if `plan` is legal for `instance`: one pass over the windows,
  /// then merges of the sorted targets against the adjacency spans.
  bool planIsLegal(const Instance& instance, const DeliveryPlan& plan) const;
  /// Throws on the first violation of an illegal plan, in plan order.
  void validatePlan(const Instance& instance, const DeliveryPlan& plan) const;
  void performDelivery(InstanceId id, NodeId receiver, bool forced);
  void onDeliveryEvent(InstanceId id, NodeId receiver);
  void onAckEvent(InstanceId id);
  void finishInstance(const Instance& instance);
  /// The held body of `id` (debug builds check it was not released).
  Instance& body(InstanceId id);
  /// Returns `id`'s body to the pool once the instance is terminated
  /// and no delivery of it is pending any more.
  void releaseIfSettled(InstanceId id);
  void forceProgressDelivery(NodeId receiver);
  void onEpochBoundary(int e);

  MacEngine(std::optional<graph::TopologyView> owned,
            const graph::TopologyView* view, MacParams params,
            std::unique_ptr<Scheduler> scheduler, ProcessFactory factory,
            std::uint64_t seed, bool traceEnabled, sim::TraceMode traceMode);

  NodeState& state(NodeId node);
  const NodeState& state(NodeId node) const;
  void checkNode(NodeId node) const;

  /// Owned single-epoch view when constructed from a bare DualGraph.
  std::optional<graph::TopologyView> ownedView_;
  const graph::TopologyView* view_ = nullptr;
  /// The epoch covering now(); dual_ caches its topology, whose
  /// graphs' neighbors() spans the delivery hot path walks.
  int epoch_ = 0;
  const graph::DualGraph* dual_ = nullptr;
  MacParams params_;
  std::unique_ptr<Scheduler> scheduler_;
  sim::EventQueue queue_;
  sim::Trace trace_;
  EngineStats stats_;
  std::vector<NodeState> nodes_;
  std::vector<InstanceRecord> records_;
  /// Pool slot of each id's body; kReleased once the instance settled.
  std::vector<std::int32_t> slotOf_;
  static constexpr std::int32_t kReleased = -1;
  /// Instance bodies.  A deque keeps references valid as it grows: a
  /// receive callback may bcast while its instance's body is in use.
  std::deque<Instance> pool_;
  std::vector<std::int32_t> freeSlots_;
  ProgressGuard guard_;
  std::uint64_t seed_;
  Rng schedulerRng_;
  bool validatePlans_ = true;
  bool epochNotifications_ = true;
  const ProtocolOracle* oracle_ = nullptr;
  DeliverHook deliverHook_;
  ArriveHook arriveHook_;
  ArrivalSource arrivalSource_;
  TimerId nextTimer_ = 1;

  /// Scratch: sorted receiver ids for planIsLegal and validatePlan
  /// (replaces a per-call unordered_set).
  mutable std::vector<NodeId> planScratch_;
};

}  // namespace ammb::mac
