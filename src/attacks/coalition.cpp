#include "attacks/coalition.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/rng.h"

namespace fle {

Coalition::Coalition(int n, std::vector<ProcessorId> members)
    : n_(n), members_(std::move(members)) {
  if (n_ < 2) throw std::invalid_argument("ring needs at least 2 processors");
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()), members_.end());
  for (const ProcessorId p : members_) {
    if (p < 0 || p >= n_) throw std::invalid_argument("coalition member out of range");
  }
  if (static_cast<int>(members_.size()) >= n_) {
    throw std::invalid_argument("coalition must leave at least one honest processor");
  }
  is_member_.assign(static_cast<std::size_t>(n_), 0);
  for (const ProcessorId p : members_) is_member_[static_cast<std::size_t>(p)] = 1;
}

Coalition Coalition::consecutive(int n, int k, ProcessorId start) {
  std::vector<ProcessorId> m;
  m.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) m.push_back((start + i) % n);
  return Coalition(n, std::move(m));
}

Coalition Coalition::equally_spaced(int n, int k, ProcessorId first) {
  if (k <= 0 || k >= n) throw std::invalid_argument("need 0 < k < n");
  const int honest = n - k;
  const int base = honest / k;
  const int extra = honest % k;
  std::vector<ProcessorId> m;
  m.reserve(static_cast<std::size_t>(k));
  ProcessorId pos = first % n;
  for (int j = 0; j < k; ++j) {
    m.push_back(pos);
    const int lj = base + (j < extra ? 1 : 0);
    pos = (pos + lj + 1) % n;
  }
  return Coalition(n, std::move(m));
}

Coalition Coalition::bernoulli(int n, double p, std::uint64_t seed) {
  Xoshiro256 rng(mix64(seed ^ 0xc0a1'1710'4e55'1234ull));
  std::vector<ProcessorId> m;
  for (ProcessorId i = 0; i < n; ++i) {
    if (rng.bernoulli(p)) m.push_back(i);
  }
  if (static_cast<int>(m.size()) >= n) m.pop_back();  // keep one honest processor
  return Coalition(n, std::move(m));
}

int Coalition::cubic_min_k(int n) {
  for (int k = 2;; ++k) {
    const std::int64_t cap =
        static_cast<std::int64_t>(k - 1) * k * (k + 1) / 2;
    if (cap >= n - k) return k;
  }
}

Coalition Coalition::cubic_staircase(int n, int k, ProcessorId first) {
  if (k < 2 || k >= n) throw std::invalid_argument("need 2 <= k < n");
  // Build segment lengths back to front: l[k-1] <= k-1 and each step
  // backwards adds at most k-1, so forward drops satisfy l_i <= l_{i+1}+k-1.
  std::vector<int> l(static_cast<std::size_t>(k), 0);
  int remaining = n - k;
  int next = 0;  // l_{i+1}; virtual l_k = 0 so l_{k-1} <= k-1
  for (int i = k - 1; i >= 0 && remaining > 0; --i) {
    const int cap = next + (k - 1);
    l[static_cast<std::size_t>(i)] = std::min(cap, remaining);
    remaining -= l[static_cast<std::size_t>(i)];
    next = l[static_cast<std::size_t>(i)];
  }
  if (remaining > 0) {
    throw std::invalid_argument("k too small for cubic staircase (see cubic_min_k)");
  }
  std::vector<ProcessorId> m;
  m.reserve(static_cast<std::size_t>(k));
  ProcessorId pos = first % n;
  for (int j = 0; j < k; ++j) {
    m.push_back(pos);
    pos = (pos + l[static_cast<std::size_t>(j)] + 1) % n;
  }
  return Coalition(n, std::move(m));
}

bool Coalition::contains(ProcessorId p) const {
  return p >= 0 && p < n_ && is_member_[static_cast<std::size_t>(p)] != 0;
}

int Coalition::index_of(ProcessorId p) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), p);
  if (it == members_.end() || *it != p) return -1;
  return static_cast<int>(it - members_.begin());
}

std::vector<int> Coalition::segment_lengths() const {
  std::vector<int> l;
  const int k = this->k();
  l.reserve(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    const ProcessorId a = members_[static_cast<std::size_t>(j)];
    const ProcessorId b = members_[static_cast<std::size_t>((j + 1) % k)];
    l.push_back(ring_distance(a, b, n_) - 1);
  }
  return l;
}

int Coalition::max_segment_length() const {
  const auto l = segment_lengths();
  return l.empty() ? n_ : *std::max_element(l.begin(), l.end());
}

int Coalition::min_segment_length() const {
  const auto l = segment_lengths();
  return l.empty() ? n_ : *std::min_element(l.begin(), l.end());
}

bool Coalition::rushing_precondition_holds() const {
  // A lone member's segment is the n - 1 others, beyond k - 1 = 0;
  // segment_lengths() reports it as -1 (the distance to itself).
  if (k() < 2) return false;
  return max_segment_length() <= k() - 1;
}

std::string Coalition::render() const {
  std::ostringstream out;
  out << "ring n=" << n_ << " k=" << k() << " :";
  const auto lengths = segment_lengths();
  for (int j = 0; j < k(); ++j) {
    out << " [a" << j << "=" << members_[static_cast<std::size_t>(j)] << "]";
    out << " --" << lengths[static_cast<std::size_t>(j)] << "--";
  }
  out << " (wraps)";
  return out.str();
}

}  // namespace fle
