#include "mac/engine.h"

#include <algorithm>
#include <utility>

namespace ammb::mac {

// ---------------------------------------------------------------------------
// Scheduler default behaviour
// ---------------------------------------------------------------------------

InstanceId Scheduler::pickProgressDelivery(
    NodeId receiver, const std::vector<InstanceId>& candidates) {
  (void)receiver;
  AMMB_ASSERT(!candidates.empty());
  return candidates.front();
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

NodeId Context::n() const { return layer_.n(); }

graph::Graph::Span Context::gNeighbors() const {
  return layer_.topology().g().neighbors(node_);
}

graph::Graph::Span Context::gPrimeNeighbors() const {
  return layer_.topology().gPrime().neighbors(node_);
}

bool Context::isGNeighbor(NodeId v) const {
  return layer_.topology().g().hasEdge(node_, v);
}

Rng& Context::rng() { return layer_.nodeRng(node_); }

void Context::bcast(Packet packet) {
  layer_.apiBcast(node_, std::move(packet));
}

bool Context::busy() const { return layer_.apiBusy(node_); }

void Context::deliver(MsgId msg) { layer_.apiDeliver(node_, msg); }

Time Context::now() const {
  layer_.requireEnhanced("Context::now");
  return layer_.now();
}

Time Context::fack() const {
  layer_.requireEnhanced("Context::fack");
  return layer_.params().fack;
}

Time Context::fprog() const {
  layer_.requireEnhanced("Context::fprog");
  return layer_.params().fprog;
}

TimerId Context::setTimerAt(Time at) { return layer_.apiSetTimer(node_, at); }

TimerId Context::setTimerAfter(Time delay) {
  AMMB_REQUIRE(delay >= 0, "timer delay must be non-negative");
  return layer_.apiSetTimer(node_, layer_.now() + delay);
}

void Context::abortBcast() { layer_.apiAbort(node_); }

// ---------------------------------------------------------------------------
// MacEngine
// ---------------------------------------------------------------------------

MacEngine::MacEngine(const graph::TopologyView& view, MacParams params,
                     std::unique_ptr<Scheduler> scheduler,
                     ProcessFactory factory, std::uint64_t seed,
                     bool traceEnabled, sim::KernelSpec,
                     sim::TraceMode traceMode)
    : MacEngine(std::nullopt, &view, params, std::move(scheduler),
                std::move(factory), seed, traceEnabled, traceMode) {}

MacEngine::MacEngine(const graph::DualGraph& topology, MacParams params,
                     std::unique_ptr<Scheduler> scheduler,
                     ProcessFactory factory, std::uint64_t seed,
                     bool traceEnabled, sim::KernelSpec,
                     sim::TraceMode traceMode)
    : MacEngine(graph::TopologyView(topology), nullptr, params,
                std::move(scheduler), std::move(factory), seed, traceEnabled,
                traceMode) {}

MacEngine::MacEngine(std::optional<graph::TopologyView> owned,
                     const graph::TopologyView* view, MacParams params,
                     std::unique_ptr<Scheduler> scheduler,
                     ProcessFactory factory, std::uint64_t seed,
                     bool traceEnabled, sim::TraceMode traceMode)
    : ownedView_(std::move(owned)),
      view_(view != nullptr ? view : &*ownedView_),
      dual_(&view_->dualAt(0)),
      params_(params),
      scheduler_(std::move(scheduler)),
      trace_(traceEnabled, traceMode),
      guard_(*this, view_->n()),
      seed_(seed),
      schedulerRng_(SeedSequence(seed).childSeed(rngstream::kScheduler, 0)) {
  params_.validate();
  AMMB_REQUIRE(scheduler_ != nullptr, "a scheduler is required");
  AMMB_REQUIRE(factory != nullptr, "a process factory is required");

  nodes_.reserve(static_cast<std::size_t>(n()));
  for (NodeId v = 0; v < n(); ++v) {
    NodeState ns{factory(v), nullptr, kNoInstance};
    AMMB_REQUIRE(ns.process != nullptr, "process factory returned null");
    nodes_.push_back(std::move(ns));
  }
  scheduler_->attach(*this);

  // Epoch transitions are scheduled first, so at a boundary tick the
  // topology switches before any same-tick delivery/timer fires (those
  // were inserted later and the queue is FIFO within a tick).
  for (int e = 1; e < view_->epochCount(); ++e) {
    queue_.schedule(view_->epochStart(e), sim::Event{kEpochEvent, kNoNode, e});
  }

  // Wake every node at t = 0, in id order, before any environment event.
  for (NodeId v = 0; v < n(); ++v) {
    queue_.schedule(0, sim::Event{kWakeEvent, v, 0});
  }
}

void MacEngine::injectArriveAt(NodeId node, MsgId msg, Time at) {
  checkNode(node);
  AMMB_REQUIRE(msg >= 0, "message ids must be non-negative");
  AMMB_REQUIRE(at >= now(), "cannot inject an arrival in the past");
  queue_.schedule(at, sim::Event{kArriveEvent, node, msg});
}

void MacEngine::setArrivalSource(ArrivalSource source) {
  AMMB_REQUIRE(source != nullptr, "arrival source must be callable");
  AMMB_REQUIRE(arrivalSource_ == nullptr,
               "an arrival source is already registered");
  arrivalSource_ = std::move(source);
  scheduleNextArrival();
}

void MacEngine::scheduleNextArrival() {
  std::optional<ArrivalEvent> next = arrivalSource_();
  if (!next.has_value()) return;
  checkNode(next->node);
  AMMB_REQUIRE(next->msg >= 0, "message ids must be non-negative");
  AMMB_REQUIRE(next->at >= now(),
               "arrival sources must yield nondecreasing times");
  queue_.schedule(next->at,
                  sim::Event{kStreamArriveEvent, next->node, next->msg});
}

sim::RunStatus MacEngine::run(Time timeLimit, std::uint64_t maxEvents) {
  return queue_.run([this](const sim::Event& event) { dispatch(event); },
                    timeLimit, maxEvents);
}

// --- events -----------------------------------------------------------------

void MacEngine::dispatch(const sim::Event& event) {
  const NodeId node = event.node;
  const std::int64_t payload = event.payload;
  switch (static_cast<EventKind>(event.kind)) {
    case kWakeEvent: fireWake(node); return;
    case kArriveEvent: fireArrive(node, static_cast<MsgId>(payload)); return;
    case kStreamArriveEvent:
      fireArrive(node, static_cast<MsgId>(payload));
      scheduleNextArrival();
      return;
    case kDeliveryEvent: onDeliveryEvent(payload, node); return;
    case kAckEvent: onAckEvent(payload); return;
    case kTimerEvent: fireTimer(node, payload); return;
    case kEpochEvent: onEpochBoundary(static_cast<int>(payload)); return;
    case kDeadlineEvent: guard_.onDeadline(node); return;
  }
  AMMB_ASSERT(false);  // every kind is handled above
}

void MacEngine::fireWake(NodeId node) {
  trace_.add({now(), sim::TraceKind::kWake, node, kNoInstance, kNoMsg});
  Context ctx(*this, node);
  state(node).process->onWake(ctx);
}

void MacEngine::fireArrive(NodeId node, MsgId msg) {
  trace_.add({now(), sim::TraceKind::kArrive, node, kNoInstance, msg});
  ++stats_.arrives;
  // The hook observes the arrival before the process reacts, so solve
  // trackers register the delivery requirements ahead of the immediate
  // deliver(m) most protocols emit at the origin.
  if (arriveHook_) arriveHook_(node, msg, now());
  Context ctx(*this, node);
  state(node).process->onArrive(ctx, msg);
}

void MacEngine::fireTimer(NodeId node, TimerId id) {
  Context ctx(*this, node);
  state(node).process->onTimer(ctx, id);
}

const InstanceRecord& MacEngine::record(InstanceId id) const {
  AMMB_REQUIRE(id >= 0 && id < static_cast<InstanceId>(records_.size()),
               "unknown instance id");
  return records_[static_cast<std::size_t>(id)];
}

const Instance& MacEngine::instance(InstanceId id) const {
  record(id);  // range check
  const std::int32_t slot = slotOf_[static_cast<std::size_t>(id)];
  AMMB_REQUIRE(slot != kReleased,
               "instance " + std::to_string(id) +
                   " has settled; its body is back in the pool (read "
                   "record(id) or the trace instead)");
  return pool_[static_cast<std::size_t>(slot)];
}

NodeId MacEngine::seededNodeRngs() const {
  return static_cast<NodeId>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const NodeState& ns) { return ns.rng != nullptr; }));
}

Process& MacEngine::processAt(NodeId node) { return *state(node).process; }

const Process& MacEngine::processAt(NodeId node) const {
  return *state(node).process;
}

std::vector<InstanceId> MacEngine::liveInstancesNear(NodeId node) const {
  std::vector<InstanceId> live;
  for (NodeId s : dual_->gPrime().neighbors(node)) {
    const InstanceId id = state(s).current;
    if (id != kNoInstance) live.push_back(id);
  }
  std::sort(live.begin(), live.end());
  return live;
}

// --- Context services -------------------------------------------------------

void MacEngine::apiBcast(NodeId node, Packet packet) {
  checkNode(node);
  NodeState& ns = state(node);
  AMMB_REQUIRE(ns.current == kNoInstance,
               "user well-formedness: bcast while a previous broadcast is "
               "still unterminated");
  AMMB_REQUIRE(static_cast<int>(packet.msgs.size()) <= params_.msgCapacity,
               "packet exceeds the per-broadcast message capacity");
  packet.sender = node;

  const InstanceId id = static_cast<InstanceId>(records_.size());
  InstanceRecord rec;
  rec.bcastAt = now();
  rec.sender = node;
  records_.push_back(rec);
  std::int32_t slot = 0;
  if (freeSlots_.empty()) {
    slot = static_cast<std::int32_t>(pool_.size());
    pool_.emplace_back();
  } else {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  }
  slotOf_.push_back(slot);
  Instance& inst = pool_[static_cast<std::size_t>(slot)];
  AMMB_DCHECK(inst.id == kNoInstance);
  inst.id = id;
  inst.sender = node;
  inst.packet = std::move(packet);
  inst.bcastAt = now();

  trace_.add({now(), sim::TraceKind::kBcast, node, id, kNoMsg});
  ++stats_.bcasts;

  const DeliveryPlan plan = scheduler_->planBcast(inst);
  if (validatePlans_) validatePlan(inst, plan);
  records_[static_cast<std::size_t>(id)].plannedAck = plan.ackAt;

  inst.reserveFanout(plan.deliveries.size());
  for (const PlannedDelivery& d : plan.deliveries) {
    const sim::EventHandle h =
        queue_.schedule(d.at, sim::Event{kDeliveryEvent, d.target, id});
    inst.addPending(d.target, d.at, h);
  }
  inst.ackEvent =
      queue_.schedule(plan.ackAt, sim::Event{kAckEvent, kNoNode, id});

  ns.current = id;
  // The new instance changes the need set of the sender's G-neighbors.
  guard_.addNeeds(id);
  for (NodeId j : dual_->g().neighbors(node)) guard_.recompute(j);
}

bool MacEngine::apiBusy(NodeId node) const {
  return state(node).current != kNoInstance;
}

void MacEngine::apiDeliver(NodeId node, MsgId msg) {
  checkNode(node);
  trace_.add({now(), sim::TraceKind::kDeliver, node, kNoInstance, msg});
  ++stats_.delivers;
  if (deliverHook_) deliverHook_(node, msg, now());
}

TimerId MacEngine::apiSetTimer(NodeId node, Time at) {
  requireEnhanced("Context::setTimer");
  checkNode(node);
  AMMB_REQUIRE(at >= now(), "timers cannot fire in the past");
  const TimerId id = nextTimer_++;
  queue_.schedule(at, sim::Event{kTimerEvent, node, id});
  return id;
}

void MacEngine::apiAbort(NodeId node) {
  requireEnhanced("Context::abortBcast");
  NodeState& ns = state(node);
  AMMB_REQUIRE(ns.current != kNoInstance,
               "abort requires a broadcast in progress");
  const InstanceId id = ns.current;
  Instance& inst = body(id);
  InstanceRecord& rec = records_[static_cast<std::size_t>(id)];
  rec.aborted = true;
  rec.termAt = now();
  trace_.add({now(), sim::TraceKind::kAbort, node, id, kNoMsg});
  ++stats_.aborts;

  queue_.cancel(inst.ackEvent);
  // Pending receives may still fire within epsAbort of the abort; the
  // rest are cancelled and forgotten.
  const Time cutoff = now() + params_.epsAbort;
  std::vector<Instance::PendingDelivery>& pending = inst.pending;
  pending.erase(std::remove_if(pending.begin(), pending.end(),
                               [this, cutoff](const auto& pd) {
                                 if (pd.at <= cutoff) return false;
                                 queue_.cancel(pd.handle);
                                 return true;
                               }),
                pending.end());
  finishInstance(inst);
  releaseIfSettled(id);
}

void MacEngine::requireEnhanced(const char* api) const {
  AMMB_REQUIRE(params_.variant == ModelVariant::kEnhanced,
               std::string(api) +
                   " is only available in the enhanced abstract MAC layer "
                   "model");
}

Rng& MacEngine::nodeRng(NodeId node) {
  NodeState& ns = state(node);
  if (ns.rng == nullptr) {
    ns.rng = std::make_unique<Rng>(SeedSequence(seed_).childSeed(
        rngstream::kNode, static_cast<std::uint64_t>(node)));
  }
  return *ns.rng;
}

// --- internal machinery -----------------------------------------------------

bool MacEngine::planIsLegal(const Instance& instance,
                            const DeliveryPlan& plan) const {
  const Time t0 = instance.bcastAt;
  if (plan.ackAt < t0 || plan.ackAt > t0 + params_.fack) return false;
  planScratch_.clear();
  for (const PlannedDelivery& d : plan.deliveries) {
    if (d.at < t0 || d.at > plan.ackAt) return false;
    planScratch_.push_back(d.target);
  }
  // Sorted and duplicate-free, the targets lie within the sender's G'
  // span (which never holds the sender) and cover its G span.
  std::sort(planScratch_.begin(), planScratch_.end());
  const graph::Graph::Span gp = dual_->gPrime().neighbors(instance.sender);
  const graph::Graph::Span g = dual_->g().neighbors(instance.sender);
  return std::adjacent_find(planScratch_.begin(), planScratch_.end()) ==
             planScratch_.end() &&
         std::includes(gp.begin(), gp.end(), planScratch_.begin(),
                       planScratch_.end()) &&
         std::includes(planScratch_.begin(), planScratch_.end(), g.begin(),
                       g.end());
}

void MacEngine::validatePlan(const Instance& instance,
                             const DeliveryPlan& plan) const {
  if (planIsLegal(instance, plan)) return;
  // An illegal plan is checked again delivery by delivery, so the first
  // violation in plan order is the one reported.  Rejections carry the
  // instance id, the offending node and the violated constraint's
  // actual values: plan bring-up for hand-built or physically-derived
  // schedulers is debugged from these messages.
  const Time t0 = instance.bcastAt;
  const auto who = [&instance, t0] {
    return "instance " + std::to_string(instance.id) + " (sender " +
           std::to_string(instance.sender) + ", bcast at " +
           std::to_string(t0) + ")";
  };
  AMMB_REQUIRE(plan.ackAt >= t0 && plan.ackAt <= t0 + params_.fack,
               "scheduler plan for " + who() +
                   " violates the acknowledgment bound: ackAt " +
                   std::to_string(plan.ackAt) + " outside [" +
                   std::to_string(t0) + ", " +
                   std::to_string(t0 + params_.fack) + "] (Fack " +
                   std::to_string(params_.fack) + ")");
  planScratch_.clear();
  planScratch_.reserve(plan.deliveries.size());
  for (const PlannedDelivery& d : plan.deliveries) {
    AMMB_REQUIRE(d.target != instance.sender,
                 "scheduler plan for " + who() +
                     " delivers to the sender itself (node " +
                     std::to_string(d.target) + ")");
    AMMB_REQUIRE(dual_->gPrime().hasEdge(instance.sender, d.target),
                 "scheduler plan for " + who() + " delivers to node " +
                     std::to_string(d.target) +
                     ", which is not a G'-neighbor of the sender in epoch " +
                     std::to_string(epoch_));
    AMMB_REQUIRE(d.at >= t0 && d.at <= plan.ackAt,
                 "scheduler plan for " + who() + " delivers to node " +
                     std::to_string(d.target) + " at " + std::to_string(d.at) +
                     ", outside [bcast, ack] = [" + std::to_string(t0) + ", " +
                     std::to_string(plan.ackAt) + "]");
    planScratch_.push_back(d.target);
  }
  std::sort(planScratch_.begin(), planScratch_.end());
  const auto dup =
      std::adjacent_find(planScratch_.begin(), planScratch_.end());
  AMMB_REQUIRE(dup == planScratch_.end(),
               "scheduler plan for " + who() +
                   " delivers twice to one receiver (node " +
                   (dup == planScratch_.end() ? std::string("?")
                                              : std::to_string(*dup)) +
                   ")");
  for (NodeId j : dual_->g().neighbors(instance.sender)) {
    AMMB_REQUIRE(
        std::binary_search(planScratch_.begin(), planScratch_.end(), j),
        "scheduler plan for " + who() +
            " misses reliable (G) neighbor node " + std::to_string(j));
  }
}

void MacEngine::performDelivery(InstanceId id, NodeId receiver, bool forced) {
  Instance& inst = body(id);
  AMMB_ASSERT(!inst.hasDeliveredTo(receiver));

  // A forced delivery preempts the planned one, if any is still pending;
  // a planned delivery event has already removed its own entry.
  if (forced) {
    if (const Instance::PendingDelivery* pd = inst.findPending(receiver)) {
      queue_.cancel(pd->handle);
      inst.removePending(receiver);
    }
  }

  inst.markDelivered(receiver);
  trace_.add({now(), sim::TraceKind::kRcv, receiver, id, kNoMsg});
  ++stats_.rcvs;
  if (forced) ++stats_.forcedRcvs;

  guard_.onReceive(receiver, id);

  Context ctx(*this, receiver);
  state(receiver).process->onReceive(ctx, inst.packet);
}

void MacEngine::onDeliveryEvent(InstanceId id, NodeId receiver) {
  Instance& inst = body(id);
  inst.removePending(receiver);
  // Skip if the guard got there first, or past an abort's grace window.
  const InstanceRecord& rec = records_[static_cast<std::size_t>(id)];
  if (!inst.hasDeliveredTo(receiver) &&
      !(rec.terminated() && now() > rec.termAt + params_.epsAbort)) {
    performDelivery(id, receiver, /*forced=*/false);
  }
  releaseIfSettled(id);
}

void MacEngine::onAckEvent(InstanceId id) {
  InstanceRecord& rec = records_[static_cast<std::size_t>(id)];
  if (rec.terminated()) return;  // aborted; event race
  Instance& inst = body(id);
  // The ack gate (Section 3.2.1): every G-neighbor of the sender whose
  // link has been live since the bcast has received the packet; a link
  // that went down or came up in between obliges nothing.  With
  // validation off an (intentionally broken) plan may ack early; the
  // offline checker flags it.
  if (validatePlans_) {
    for (NodeId j : dual_->g().neighbors(inst.sender)) {
      AMMB_ASSERT(inst.hasDeliveredTo(j) ||
                  view_->gEdgeLiveSince(epoch_, inst.sender, j) > inst.bcastAt);
    }
  }
  rec.termAt = now();
  trace_.add({now(), sim::TraceKind::kAck, inst.sender, id, kNoMsg});
  ++stats_.acks;
  finishInstance(inst);

  Context ctx(*this, inst.sender);
  state(inst.sender).process->onAck(ctx, inst.packet);
  // Released only now, since onAck reads the packet.  The pool keeps
  // `inst` valid while onAck bcasts again (records_ may move).
  releaseIfSettled(id);
}

void MacEngine::finishInstance(const Instance& inst) {
  NodeState& sender = state(inst.sender);
  if (sender.current == inst.id) sender.current = kNoInstance;
  guard_.onTerminate(inst.id, inst.deliveredTo);

  // The instance no longer contends anywhere; coverage intervals it
  // provided are now capped at termAt, so re-evaluate the neighborhood:
  // the current epoch's G' span of the sender holds every node the
  // instance contended at.
  const graph::Graph::Span gpNbrs = dual_->gPrime().neighbors(inst.sender);
  for (NodeId j : gpNbrs) guard_.recompute(j);
  // Termination also caps this instance's cover intervals at termAt —
  // including covers held by receivers the sender can no longer reach
  // (their link dropped, or the sender crashed, since the delivery), or
  // never could: with plan validation off a scheduler may deliver
  // outside G'.  One merge of the two sorted sets finds whether there
  // are any; on a static topology with validated plans there are none.
  if (inst.deliveredWithin(gpNbrs)) return;
  for (NodeId j : inst.deliveredTo) {
    if (!dual_->gPrime().hasEdge(inst.sender, j)) guard_.recompute(j);
  }
}

Instance& MacEngine::body(InstanceId id) {
  const std::int32_t slot = slotOf_[static_cast<std::size_t>(id)];
  AMMB_DCHECK(slot != kReleased);
  Instance& inst = pool_[static_cast<std::size_t>(slot)];
  AMMB_DCHECK(inst.id == id);
  return inst;
}

void MacEngine::releaseIfSettled(InstanceId id) {
  // No delivery can happen after this point, so nothing in the body
  // matters any more; the record keeps the instance's summary.
  if (!records_[static_cast<std::size_t>(id)].terminated()) return;
  Instance& inst = body(id);
  if (!inst.pending.empty()) return;
  inst.reset();
  std::int32_t& slot = slotOf_[static_cast<std::size_t>(id)];
  freeSlots_.push_back(slot);
  slot = kReleased;
}

void MacEngine::onEpochBoundary(int e) {
  AMMB_ASSERT(e == epoch_ + 1);
  epoch_ = e;
  dual_ = &view_->dualAt(e);
  trace_.add({now(), sim::TraceKind::kEpoch, kNoNode, kNoInstance,
              static_cast<MsgId>(e)});

  // Reconcile every in-flight instance with the new topology: exactly
  // those holding a body, visited in id order.  A vanished E'-link
  // voids its scheduled delivery.  A vanished E-link (or a crashed
  // endpoint — crashed nodes have empty adjacency) also voids the
  // acknowledgment guarantee for that receiver, which the ack reads
  // off the view.  The ack itself always fires as planned: a crashed
  // sender simply stops delivering (its radio is down), it does not
  // lose its automaton.
  std::vector<InstanceId> held;
  for (const Instance& inst : pool_) {
    if (inst.id != kNoInstance) held.push_back(inst.id);
  }
  std::sort(held.begin(), held.end());
  for (InstanceId id : held) {
    Instance& inst = body(id);
    const NodeId s = inst.sender;
    // Scrub vanished-link deliveries even for aborted instances: their
    // epsAbort grace window may still hold scheduled events.  A
    // swap-remove during a back-to-front scan only moves entries the
    // scan has already kept.
    std::vector<Instance::PendingDelivery>& pending = inst.pending;
    bool dropped = false;
    for (std::size_t p = pending.size(); p-- > 0;) {
      if (dual_->gPrime().hasEdge(s, pending[p].target)) continue;
      queue_.cancel(pending[p].handle);
      if (p + 1 != pending.size()) pending[p] = pending.back();
      pending.pop_back();
      dropped = true;
    }
    if (dropped) releaseIfSettled(id);
  }

  // Rebuild the guard's need windows from the new neighborhoods: a
  // live instance obliges its sender's current G-neighbors.
  guard_.clearNeeds();
  for (InstanceId id : held) {
    if (!records_[static_cast<std::size_t>(id)].terminated()) {
      guard_.addNeeds(id);
    }
  }

  // Need sets may have shrunk (links gone) or gained a later live-since
  // clip (links appeared); re-arm the affected receivers' deadlines.
  // Nodes outside touchedAt(e) keep identical neighborhoods, liveness
  // and live-since instants across the boundary, so their recompute
  // would re-derive the deadline they already hold — a no-op consuming
  // no event sequence numbers.  Skipping them is therefore
  // trace-identical to the full-n pass (the committed golden traces
  // and the churn_grid sweep baseline pin this down).
  for (NodeId j : view_->touchedAt(e)) guard_.recompute(j);

  // Finally, tell the automatons, in ascending node order at the very
  // end of the boundary, so a reaction that broadcasts re-arms through
  // the ordinary apiBcast path.  Per-node G gain/loss flags come from
  // merging the two epochs' sorted adjacency over the touched
  // superset; untouched nodes have identical neighborhoods by
  // construction.
  if (!epochNotifications_) return;
  const graph::Graph& prev = view_->dualAt(e - 1).g();
  const std::vector<NodeId>& touched = view_->touchedAt(e);
  std::size_t t = 0;  // touched is sorted and duplicate-free
  for (NodeId v = 0; v < n(); ++v) {
    EpochChange change;
    change.epoch = e;
    if (t < touched.size() && touched[t] == v) {
      ++t;
      change.touched = true;
      const graph::Graph::Span before = prev.neighbors(v);
      const graph::Graph::Span after = dual_->g().neighbors(v);
      const NodeId* b = before.begin();
      const NodeId* a = after.begin();
      while (b != before.end() && a != after.end()) {
        if (*b == *a) {
          ++b;
          ++a;
        } else if (*b < *a) {
          change.lostG = true;
          ++b;
        } else {
          change.gainedG = true;
          ++a;
        }
      }
      if (b != before.end()) change.lostG = true;
      if (a != after.end()) change.gainedG = true;
    }
    Context ctx(*this, v);
    state(v).process->onEpochChange(ctx, change);
  }
}

void MacEngine::forceProgressDelivery(NodeId receiver) {
  std::vector<InstanceId> candidates = liveInstancesNear(receiver);
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [this, receiver](InstanceId id) {
                                    return body(id).hasDeliveredTo(receiver);
                                  }),
                   candidates.end());
  AMMB_ASSERT(!candidates.empty());
  const InstanceId chosen =
      scheduler_->pickProgressDelivery(receiver, candidates);
  AMMB_ASSERT(std::find(candidates.begin(), candidates.end(), chosen) !=
              candidates.end());
  performDelivery(chosen, receiver, /*forced=*/true);
}

MacEngine::NodeState& MacEngine::state(NodeId node) {
  checkNode(node);
  return nodes_[static_cast<std::size_t>(node)];
}

const MacEngine::NodeState& MacEngine::state(NodeId node) const {
  checkNode(node);
  return nodes_[static_cast<std::size_t>(node)];
}

void MacEngine::checkNode(NodeId node) const {
  AMMB_REQUIRE(node >= 0 && node < n(), "node id out of range");
}

}  // namespace ammb::mac
