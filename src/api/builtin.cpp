// Registers every built-in protocol and deviation into the scenario
// registries: the ring protocols of src/protocols/, the fully-connected and
// synchronous scenarios, the full-information games of src/fullinfo/, the
// game-tree protocols of src/trees/, and all attacks of src/attacks/.
//
// Factory conventions:
//  * Ring/graph/sync factories receive (spec, seed); deterministic
//    protocols ignore the seed, per-trial randomized protocols (classical
//    baselines with logical-id permutations) consume it.
//  * Deviation factories receive the live protocol instance so attacks that
//    are parameterized by the protocol (phase attacks need the PRF, Shamir
//    attacks the threshold) can downcast — with a clear error when the spec
//    pairs a deviation with an incompatible protocol.

#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "attacks/basic_single.h"
#include "attacks/cubic.h"
#include "attacks/phase_late_validation.h"
#include "attacks/phase_rushing.h"
#include "attacks/phase_sum_attack.h"
#include "attacks/random_location.h"
#include "attacks/rushing.h"
#include "attacks/shamir_attacks.h"
#include "attacks/sync_attacks.h"
#include "attacks/tamper.h"
#include "fullinfo/baton.h"
#include "fullinfo/majority.h"
#include "protocols/alead_uni.h"
#include "protocols/basic_lead.h"
#include "protocols/chang_roberts.h"
#include "protocols/indexing.h"
#include "protocols/peterson.h"
#include "protocols/phase_async_lead.h"
#include "protocols/phase_sum_lead.h"
#include "protocols/shamir_lead.h"
#include "protocols/sync_lead.h"
#include "trees/tree_protocols.h"
#include "trees/two_party.h"

namespace fle {

PhaseParams phase_params(const ScenarioSpec& spec) {
  PhaseParams params = PhaseParams::defaults(spec.n);
  if (spec.param_l != 0) {
    // Downstream only asserts this (RandomFunction), and asserts vanish
    // under NDEBUG — gate it here with a field-naming error so fuzzed
    // specs are rejected cleanly instead of mis-sizing validation spans.
    if (spec.param_l < 1 || spec.param_l >= spec.n) {
      throw std::invalid_argument(
          "ScenarioSpec.param_l must satisfy 1 <= l < n (got l = " +
          std::to_string(spec.param_l) + ", n = " + std::to_string(spec.n) + ")");
    }
    params.l = spec.param_l;
  }
  return params;
}

namespace {

Coalition require_coalition(const ScenarioSpec& spec, const char* deviation) {
  auto coalition = build_coalition(spec.coalition, spec.n);
  if (!coalition) {
    throw std::invalid_argument(std::string("deviation '") + deviation +
                                "' needs an explicit coalition placement");
  }
  return *std::move(coalition);
}

/// Single-adversary deviations: the lone coalition member (default: 1).
ProcessorId lone_adversary(const ScenarioSpec& spec, const char* deviation) {
  const auto coalition = build_coalition(spec.coalition, spec.n);
  if (!coalition) return 1;
  if (coalition->k() != 1) {
    throw std::invalid_argument(std::string("deviation '") + deviation +
                                "' is a single-adversary attack (got k = " +
                                std::to_string(coalition->k()) + ")");
  }
  return coalition->members()[0];
}

template <typename T, typename P>
const T& require_protocol(const char* deviation, const char* needed, const P& protocol) {
  const auto* cast = dynamic_cast<const T*>(&protocol);
  if (cast == nullptr) {
    throw std::invalid_argument(std::string("deviation '") + deviation +
                                "' requires protocol '" + needed + "'");
  }
  return *cast;
}

/// Adapts an extensive-form GameTree (src/trees/) to the TurnGame interface
/// so tree protocols run through the same turn-game scenario path as the
/// full-information games: the transcript is the path from the root.
class GameTreeTurnGame final : public TurnGame {
 public:
  explicit GameTreeTurnGame(GameTree tree) : tree_(std::move(tree)) {}

  int players() const override { return tree_.players(); }
  bool finished(const Transcript& t) const override { return node(t).is_leaf(); }
  ProcessorId mover(const Transcript& t) const override { return node(t).owner; }
  Value action_count(const Transcript& t) const override {
    return static_cast<Value>(node(t).children.size());
  }
  Value outcome(const Transcript& t) const override {
    return static_cast<Value>(*node(t).outcome);
  }

 private:
  const GameNode& node(const Transcript& t) const {
    const GameNode* current = &tree_.root();
    for (const Value action : t) {
      current = current->children[static_cast<std::size_t>(action)].get();
    }
    return *current;
  }

  GameTree tree_;
};

/// The last mover of the alternating-XOR game forces the outcome: at its
/// final move it plays target XOR (everything revealed so far); earlier
/// moves are arbitrary (the wait-then-choose failure of async coin toss).
class XorLastMoverAdversary final : public TurnAdversary {
 public:
  XorLastMoverAdversary(Value target_bit, int rounds)
      : target_(target_bit & 1), rounds_(rounds) {}

  Value choose(const TurnGame& /*game*/, const Transcript& t, ProcessorId /*mover*/) override {
    if (static_cast<int>(t.size()) != rounds_ - 1) return 0;
    Value parity = 0;
    for (const Value bit : t) parity ^= bit & 1;
    return parity ^ target_;
  }

 private:
  Value target_;
  int rounds_;
};

void register_protocols(std::vector<ProtocolEntry>& out) {
  {
    ProtocolEntry entry;
    entry.name = "basic-lead";
    entry.summary = "Basic-LEAD, the didactic non-resilient ring protocol (Appendix B)";
    entry.make_ring = [](const ScenarioSpec&, std::uint64_t) {
      return std::make_unique<BasicLeadProtocol>();
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "alead-uni";
    entry.summary = "A-LEADuni, buffered secret sharing on the async ring (Section 3)";
    entry.make_ring = [](const ScenarioSpec&, std::uint64_t) {
      return std::make_unique<ALeadUniProtocol>();
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "phase-async-lead";
    entry.summary = "PhaseAsyncLead, the Theta(sqrt(n))-resilient protocol (Section 6)";
    entry.make_ring = [](const ScenarioSpec& spec, std::uint64_t) {
      return std::make_unique<PhaseAsyncLeadProtocol>(phase_params(spec), spec.protocol_key);
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "phase-sum-lead";
    entry.summary = "PhaseSumLead, the sum-output strawman (Appendix E.4)";
    entry.make_ring = [](const ScenarioSpec& spec, std::uint64_t) {
      return std::make_unique<PhaseSumLeadProtocol>(phase_params(spec));
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "indexing+alead-uni";
    entry.summary = "Appendix G indexing phase wrapped around A-LEADuni";
    entry.make_ring = [](const ScenarioSpec&, std::uint64_t) {
      return std::make_unique<IndexingProtocol>(std::make_shared<ALeadUniProtocol>());
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "chang-roberts";
    entry.summary = "Chang-Roberts extrema finding, classical baseline (E12)";
    entry.per_trial = true;
    entry.make_ring = [](const ScenarioSpec& spec, std::uint64_t seed) {
      return std::make_unique<ChangRobertsProtocol>(ChangRobertsProtocol::random(spec.n, seed));
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "peterson";
    entry.summary = "Peterson O(n log n) election, classical baseline (E12)";
    entry.per_trial = true;
    entry.make_ring = [](const ScenarioSpec& spec, std::uint64_t seed) {
      return std::make_unique<PetersonProtocol>(PetersonProtocol::random(spec.n, seed));
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "shamir-lead";
    entry.summary = "Shamir-LEAD on the fully-connected async network (Section 1.1)";
    entry.make_graph = [](const ScenarioSpec& spec, std::uint64_t) {
      return std::make_unique<ShamirLeadProtocol>(spec.n);
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "sync-broadcast-lead";
    entry.summary = "Sync-Broadcast-LEAD, optimal k = n-1 resilience (Section 1.1)";
    entry.make_sync = [](const ScenarioSpec&, std::uint64_t) {
      return std::make_unique<SyncBroadcastLeadProtocol>();
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "sync-ring-lead";
    entry.summary = "Sync-Ring-LEAD, lockstep forwarding rounds (Section 1.1)";
    entry.make_sync = [](const ScenarioSpec&, std::uint64_t) {
      return std::make_unique<SyncRingLeadProtocol>();
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "baton";
    entry.summary = "Saks' pass-the-baton election, full-information model";
    entry.make_game = [](const ScenarioSpec& spec) {
      return std::make_unique<BatonGame>(spec.n);
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "majority-coin";
    entry.summary = "One-round majority coin (Ben-Or & Linial), full information";
    entry.make_game = [](const ScenarioSpec& spec) {
      return std::make_unique<MajorityCoinGame>(spec.n);
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "alternating-xor";
    entry.summary = "Two-party alternating-XOR coin toss as a game tree (Lemma F.2)";
    entry.make_game = [](const ScenarioSpec& spec) {
      return std::make_unique<GameTreeTurnGame>(alternating_xor_game(spec.rounds));
    };
    out.push_back(std::move(entry));
  }
  {
    ProtocolEntry entry;
    entry.name = "xor-leaf-edge";
    entry.summary = "Leaf-edge game of the tree XOR protocol (Corollary F.4)";
    entry.make_game = [](const ScenarioSpec&) {
      return std::make_unique<GameTreeTurnGame>(xor_leaf_edge_game(/*leaf_last=*/false));
    };
    out.push_back(std::move(entry));
  }
}

void register_deviations(std::vector<DeviationEntry>& out) {
  {
    DeviationEntry entry;
    entry.name = "basic-single";
    entry.summary = "Claim B.1: one adversary controls Basic-LEAD";
    entry.make_ring = [](const RingProtocol&, const ScenarioSpec& spec) {
      return std::make_unique<BasicSingleDeviation>(
          spec.n, lone_adversary(spec, "basic-single"), spec.target);
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "rushing";
    entry.summary = "Lemma 4.1 rushing attack on A-LEADuni (needs all l_j <= k-1)";
    entry.make_ring = [](const RingProtocol&, const ScenarioSpec& spec) {
      return std::make_unique<RushingDeviation>(require_coalition(spec, "rushing"),
                                                spec.target);
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "cubic";
    entry.summary = "Theorem 4.3 cubic attack, k = Theta(n^(1/3)) staircase";
    entry.make_ring = [](const RingProtocol&, const ScenarioSpec& spec) {
      auto coalition = build_coalition(spec.coalition, spec.n);
      if (!coalition) {
        coalition = Coalition::cubic_staircase(spec.n, Coalition::cubic_min_k(spec.n));
      }
      return std::make_unique<CubicDeviation>(*std::move(coalition), spec.target);
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "random-location";
    entry.summary = "Theorem C.1 randomly located coalition (Bernoulli placement)";
    entry.make_ring = [](const RingProtocol& protocol, const ScenarioSpec& spec) {
      return std::make_unique<RandomLocationDeviation>(
          require_coalition(spec, "random-location"), spec.target, spec.prefix, protocol);
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "phase-rushing";
    entry.summary = "Free-slot steering of PhaseAsyncLead (Theorem 6.1 remark)";
    entry.make_ring = [](const RingProtocol& protocol, const ScenarioSpec& spec) {
      const auto& phase = require_protocol<PhaseAsyncLeadProtocol>(
          "phase-rushing", "phase-async-lead", protocol);
      return std::make_unique<PhaseRushingDeviation>(require_coalition(spec, "phase-rushing"),
                                                     spec.target, phase, spec.search_cap);
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "phase-late-validation";
    entry.summary = "Late-validation steering, the l ablation (coalition = canonical)";
    entry.make_ring = [](const RingProtocol& protocol, const ScenarioSpec& spec) {
      if (spec.coalition.placement != CoalitionSpec::Placement::kDefault) {
        throw std::invalid_argument(
            "deviation 'phase-late-validation' builds its canonical coalition; use the "
            "default placement");
      }
      const auto& phase = require_protocol<PhaseAsyncLeadProtocol>(
          "phase-late-validation", "phase-async-lead", protocol);
      return std::make_unique<PhaseLateValidationDeviation>(phase, spec.target,
                                                            spec.search_cap);
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "phase-sum";
    entry.summary = "Appendix E.4 covert-channel attack on PhaseSumLead (k = 4)";
    entry.make_ring = [](const RingProtocol& protocol, const ScenarioSpec& spec) {
      const auto& sum = require_protocol<PhaseSumLeadProtocol>("phase-sum", "phase-sum-lead",
                                                               protocol);
      auto coalition = build_coalition(spec.coalition, spec.n);
      if (!coalition) coalition = PhaseSumDeviation::placement(spec.n);
      return std::make_unique<PhaseSumDeviation>(*std::move(coalition), spec.target, sum);
    };
    out.push_back(std::move(entry));
  }
  const auto add_tamper = [&out](const char* name, TamperKind kind,
                                 const char* summary) {
    DeviationEntry entry;
    entry.name = name;
    entry.summary = summary;
    entry.make_ring = [kind, name](const RingProtocol& protocol, const ScenarioSpec& spec) {
      return std::make_unique<TamperDeviation>(spec.n, lone_adversary(spec, name), protocol,
                                               kind, spec.tamper_send);
    };
    out.push_back(std::move(entry));
  };
  add_tamper("tamper-flip", TamperKind::kFlipValue,
             "fault injection: adds 1 to one outgoing value");
  add_tamper("tamper-drop", TamperKind::kDropSend, "fault injection: suppresses one send");
  add_tamper("tamper-duplicate", TamperKind::kDuplicate,
             "fault injection: sends one message twice");
  add_tamper("tamper-extra-zero", TamperKind::kExtraZero,
             "fault injection: injects an extra 0");
  {
    DeviationEntry entry;
    entry.name = "shamir-rushing";
    entry.summary = "Early reconstruction, controls Shamir-LEAD iff k >= t";
    entry.make_graph = [](const GraphProtocol& protocol, const ScenarioSpec& spec) {
      const auto& shamir = require_protocol<ShamirLeadProtocol>("shamir-rushing", "shamir-lead",
                                                                protocol);
      return std::make_unique<ShamirRushingDeviation>(
          require_coalition(spec, "shamir-rushing"), spec.target, shamir);
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "shamir-forge";
    entry.summary = "Reveal forging, controls Shamir-LEAD iff honest < t";
    entry.make_graph = [](const GraphProtocol& protocol, const ScenarioSpec& spec) {
      const auto& shamir = require_protocol<ShamirLeadProtocol>("shamir-forge", "shamir-lead",
                                                                protocol);
      return std::make_unique<ShamirForgeDeviation>(require_coalition(spec, "shamir-forge"),
                                                    spec.target, shamir);
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "sync-blind-collusion";
    entry.summary = "E15: members broadcast blind fixed values (k = n-1 gains nothing)";
    entry.make_sync = [](const SyncProtocol& protocol, const ScenarioSpec& spec) {
      // The colluders hard-code broadcast-round semantics.
      require_protocol<SyncBroadcastLeadProtocol>("sync-blind-collusion",
                                                  "sync-broadcast-lead", protocol);
      return std::make_unique<SyncBlindCollusionDeviation>(
          require_coalition(spec, "sync-blind-collusion"));
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "sync-late-broadcast";
    entry.summary = "E15: one member broadcasts a round late (detected, FAILs)";
    entry.make_sync = [](const SyncProtocol& protocol, const ScenarioSpec& spec) {
      // The late broadcaster hard-codes broadcast-round semantics.
      require_protocol<SyncBroadcastLeadProtocol>("sync-late-broadcast",
                                                  "sync-broadcast-lead", protocol);
      auto coalition = build_coalition(spec.coalition, spec.n);
      if (!coalition) coalition = Coalition::consecutive(spec.n, 1, 1);
      return std::make_unique<SyncLateBroadcastDeviation>(*std::move(coalition));
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "baton-greedy";
    entry.summary = "Greedy baton coalition burning honest non-targets (Saks)";
    // The adversary downcasts the game to BatonGame to replay transcripts;
    // gate the pairing here (found by the conformance fuzzer: an unchecked
    // cast let this adversary read garbage state from the XOR games).
    entry.turn_coalition = [](const TurnGame& game, const ScenarioSpec& spec) {
      require_protocol<BatonGame>("baton-greedy", "baton", game);
      return require_coalition(spec, "baton-greedy").members();
    };
    entry.make_turn = [](const TurnGame& game, const ScenarioSpec& spec) {
      require_protocol<BatonGame>("baton-greedy", "baton", game);
      return std::make_unique<BatonGreedyAdversary>(
          require_coalition(spec, "baton-greedy").members(),
          static_cast<ProcessorId>(spec.target));
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "majority-target";
    entry.summary = "Optimal one-round majority deviation: vote the target bit";
    entry.turn_coalition = [](const TurnGame& game, const ScenarioSpec& spec) {
      require_protocol<MajorityCoinGame>("majority-target", "majority-coin", game);
      return require_coalition(spec, "majority-target").members();
    };
    entry.make_turn = [](const TurnGame& game, const ScenarioSpec& spec) {
      require_protocol<MajorityCoinGame>("majority-target", "majority-coin", game);
      return std::make_unique<MajorityTargetAdversary>(spec.target);
    };
    out.push_back(std::move(entry));
  }
  {
    DeviationEntry entry;
    entry.name = "xor-last-mover";
    entry.summary = "Wait-then-choose: the last XOR mover forces the coin";
    entry.turn_coalition = [](const TurnGame&, const ScenarioSpec& spec) {
      return std::vector<ProcessorId>{(spec.rounds - 1) % 2};
    };
    entry.make_turn = [](const TurnGame&, const ScenarioSpec& spec) {
      return std::make_unique<XorLastMoverAdversary>(spec.target, spec.rounds);
    };
    out.push_back(std::move(entry));
  }
}

}  // namespace

void register_builtin_scenarios() {
  // Builtins go through the registries' private insert() (this function is
  // their friend), so the public add() can trigger this registration first
  // — making builtin names reserved — without any re-entrancy.
  static std::once_flag once;
  std::call_once(once, [] {
    std::vector<ProtocolEntry> protocols;
    register_protocols(protocols);
    std::vector<DeviationEntry> deviations;
    register_deviations(deviations);
    for (auto& entry : protocols) ProtocolRegistry::instance().insert(std::move(entry));
    for (auto& entry : deviations) DeviationRegistry::instance().insert(std::move(entry));
  });
}

}  // namespace fle
