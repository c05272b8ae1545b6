#include "fabric/fault.h"

#include <algorithm>
#include <stdexcept>

#include "core/rng.h"

namespace fle::fabric {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("fault plan: " + what);
}

std::uint64_t parse_u64(const std::string& text, const std::string& token,
                        const char* field) {
  if (text.empty()) bad("'" + token + "': empty " + field);
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') bad("'" + token + "': " + field + " is not a number");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) bad("'" + token + "': " + field + " overflows");
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kKill:
      return "kill";
    case FaultKind::kHang:
      return "hang";
    case FaultKind::kCorruptFrame:
      return "corrupt";
    case FaultKind::kSlowLink:
      return "slow";
  }
  return "unknown";
}

std::optional<FaultAction> FaultPlan::action_at(std::uint64_t ordinal) const {
  for (const FaultAction& action : actions) {
    if (action.window == ordinal) return action;
  }
  return std::nullopt;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) bad("empty action (stray comma?)");

    const std::size_t at = token.find('@');
    if (at == std::string::npos) {
      bad("'" + token + "': expected <kind>@<ordinal>[:<millis>]");
    }
    const std::string kind_text = token.substr(0, at);
    FaultAction action;
    if (kind_text == "kill") {
      action.kind = FaultKind::kKill;
    } else if (kind_text == "hang") {
      action.kind = FaultKind::kHang;
    } else if (kind_text == "corrupt") {
      action.kind = FaultKind::kCorruptFrame;
    } else if (kind_text == "slow") {
      action.kind = FaultKind::kSlowLink;
    } else {
      bad("'" + token + "': unknown kind '" + kind_text +
          "' (expected kill, hang, corrupt, or slow)");
    }

    std::string rest = token.substr(at + 1);
    const std::size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      const std::string param = rest.substr(colon + 1);
      rest = rest.substr(0, colon);
      if (action.kind == FaultKind::kKill || action.kind == FaultKind::kCorruptFrame) {
        bad("'" + token + "': " + to_string(action.kind) + " takes no parameter");
      }
      action.millis = parse_u64(param, token, "millis");
    }
    action.window = parse_u64(rest, token, "ordinal");
    if (action.window == 0) bad("'" + token + "': ordinals are 1-based");

    for (const FaultAction& existing : plan.actions) {
      if (existing.window == action.window) {
        bad("two actions on ordinal " + std::to_string(action.window));
      }
    }
    plan.actions.push_back(action);
  }
  std::sort(plan.actions.begin(), plan.actions.end(),
            [](const FaultAction& a, const FaultAction& b) { return a.window < b.window; });
  return plan;
}

FaultPlan FaultPlan::sample(std::uint64_t seed, std::uint64_t windows, double rate) {
  if (rate < 0.0 || rate > 1.0) {
    bad("sample rate " + std::to_string(rate) + " is outside [0, 1]");
  }
  FaultPlan plan;
  std::uint64_t state = seed ^ 0xfab1c0de5eed0001ull;
  for (std::uint64_t ordinal = 1; ordinal <= windows; ++ordinal) {
    const double roll =
        static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;  // [0, 1)
    if (roll >= rate) continue;
    FaultAction action;
    action.window = ordinal;
    switch (splitmix64(state) % 4) {
      case 0:
        action.kind = FaultKind::kKill;
        break;
      case 1:
        action.kind = FaultKind::kHang;
        action.millis = 500 + splitmix64(state) % 1500;
        break;
      case 2:
        action.kind = FaultKind::kCorruptFrame;
        break;
      default:
        action.kind = FaultKind::kSlowLink;
        action.millis = 50 + splitmix64(state) % 200;
        break;
    }
    plan.actions.push_back(action);
  }
  return plan;
}

}  // namespace fle::fabric
