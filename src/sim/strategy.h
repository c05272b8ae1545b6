#pragma once
// Event-driven processor strategies for the unidirectional ring (paper §2).
//
// A strategy is the paper's notion of a (deterministic, randomness-via-tape)
// behavior: upon wake-up or upon receiving a message it may send zero or
// more messages on its single outgoing link and may terminate with an output
// (a value, or bottom/abort).  A protocol assigns a strategy to every
// processor; an adversarial deviation replaces the strategies of coalition
// members (Definition 2.2).

#include "core/rng.h"
#include "core/types.h"
#include "sim/arena.h"

namespace fle {

/// Capabilities available to a strategy while handling an event.  Provided
/// by the runtime (deterministic engine or threaded runtime).
class RingContext {
 public:
  RingContext(ProcessorId id, int n) : id_(id), n_(n) {}
  virtual ~RingContext() = default;

  /// Enqueue a message on the processor's single outgoing link (to its ring
  /// successor).  FIFO delivery is guaranteed by the runtime.
  virtual void send(Value v) = 0;

  /// Terminate with a valid output (a leader id in [0, n)).
  virtual void terminate(Value output) = 0;

  /// Terminate with bottom (abort).  The global outcome becomes FAIL.
  virtual void abort() = 0;

  /// The processor's ring position and the ring size: plain reads of values
  /// fixed when the runtime built the context, not virtual calls.
  [[nodiscard]] ProcessorId id() const { return id_; }
  [[nodiscard]] int ring_size() const { return n_; }

  /// The processor's private random tape (paper: infinite random string).
  virtual RandomTape& tape() = 0;

 private:
  ProcessorId id_;
  int n_;
};

/// A processor strategy.  `on_init` is the wake-up event (only the origin
/// sends spontaneously in the paper's honest protocols, but deviating
/// strategies may send at wake-up too); `on_receive` handles one incoming
/// message.  After terminate()/abort() no further events are delivered.
class RingStrategy {
 public:
  virtual ~RingStrategy() = default;

  virtual void on_init(RingContext& /*ctx*/) {}
  virtual void on_receive(RingContext& ctx, Value message) = 0;
};

/// A protocol assigns a strategy to every position on an n-ring.  Symmetric
/// protocols ignore `id` except for the origin/normal split the paper makes
/// explicit (processor 0 is the origin).
class RingProtocol {
 public:
  virtual ~RingProtocol() = default;

  /// Constructs processor `id`'s strategy inside `arena` (alive until the
  /// arena's next rewind), typically as arena.emplace<ConcreteStrategy>(...),
  /// so reused workers run allocation-free in steady state.
  [[nodiscard]] virtual RingStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                       int n) const = 0;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Expected total number of messages in an honest execution, used to set
  /// runtime step bounds.  Conservative default: 4n^2.
  [[nodiscard]] virtual std::uint64_t honest_message_bound(int n) const {
    return 4ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
  }
};

}  // namespace fle
