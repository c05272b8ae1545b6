#pragma once
// Pins a scenario's results to literals: per-trial outcomes, the message and
// sync-gap aggregates, and a fold of the per-trial transcripts' events.  A
// change to pick order, tape draws, steered values or the event stream
// moves at least one of them.

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <string>

#include "api/scenario.h"
#include "core/rng.h"
#include "sim/transcript.h"

namespace fle {

/// An order-sensitive FNV-1a fold of a transcript's events (kind, a, b, c
/// per event), the pins' fingerprint of one execution.
inline std::uint64_t event_fold(const ExecutionTranscript& t) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const TranscriptEvent& e : t.events()) {
    for (const std::uint64_t word : {static_cast<std::uint64_t>(e.kind), e.a, e.b, e.c}) {
      hash ^= word;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

/// Per-trial outcomes ("F" for FAIL), the message and sync-gap aggregates,
/// and a mix64 fold of the per-trial event_folds (every delivery and
/// decision, in order; the FNV offset basis when transcripts are off).
struct ScenarioPin {
  std::string outcomes;
  std::uint64_t total_messages = 0;
  std::uint64_t max_messages = 0;
  std::uint64_t total_sync_gap = 0;
  std::uint64_t max_sync_gap = 0;
  std::uint64_t transcripts = 0;
};

/// Runs `spec` with per-trial outcomes recorded, and with per-trial
/// transcripts when `transcribe` is set, and pins the result.
inline ScenarioPin run_pinned(ScenarioSpec spec, bool transcribe = true) {
  spec.record_outcomes = true;
  spec.record_transcripts = transcribe;
  const ScenarioResult r = run_scenario(spec);
  ScenarioPin pin{"", r.total_messages, r.max_messages, r.total_sync_gap, r.max_sync_gap,
                  0xcbf29ce484222325ull};
  for (const Outcome& o : r.per_trial) {
    if (!pin.outcomes.empty()) pin.outcomes += ' ';
    pin.outcomes += o.valid() ? std::to_string(o.leader()) : "F";
  }
  for (const ExecutionTranscript& t : r.per_trial_transcript) {
    pin.transcripts = mix64(pin.transcripts ^ event_fold(t));
  }
  return pin;
}

/// The pin as a brace-initializer row, for re-recording a table of pins.
inline std::string pin_literal(const ScenarioPin& pin) {
  std::ostringstream out;
  out << "\"" << pin.outcomes << "\", " << pin.total_messages << ", " << pin.max_messages
      << ", " << pin.total_sync_gap << ", " << pin.max_sync_gap << ", 0x" << std::hex
      << pin.transcripts << "ull";
  return out.str();
}

}  // namespace fle
