#include "store/store.h"

#include <algorithm>
#include <functional>
#include <map>
#include <stdexcept>

namespace fle {

namespace {

constexpr std::uint8_t kStoreMagic[4] = {'F', 'L', 'S', 'T'};
constexpr std::uint8_t kStoreEndMagic[4] = {'F', 'L', 'S', 'E'};
constexpr std::uint8_t kStoreVersion = 1;
constexpr std::size_t kFooterSize = 5 * 8 + 32 + 4;

/// Trials covered by one subtree at `level` (levels used stay <= 15 here:
/// the root is at most level 16 and only child spans, level-1, are taken).
std::uint64_t subtree_span(int level) { return 1ull << (4 * level); }

void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

std::uint64_t get_u64le(std::span<const std::uint8_t> bytes, std::size_t offset) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(bytes[offset + i]) << (8 * i);
  }
  return value;
}

/// The inner-node hash preimage: 'I', the level byte, then all 16 child
/// hashes in slot order (absent child = 32 zero bytes).  Record offsets are
/// location metadata, not content, so they stay out of the hash — content
/// equality is layout-independent.
Digest256 inner_hash(int level, const std::array<std::optional<StoreNodeRef>, 16>& children) {
  static constexpr std::array<std::uint8_t, 32> kZero{};
  Sha256 hasher;
  const std::uint8_t prefix[2] = {'I', static_cast<std::uint8_t>(level)};
  hasher.update(prefix, 2);
  for (const auto& child : children) {
    hasher.update(child ? child->hash.bytes.data() : kZero.data(), 32);
  }
  return hasher.finish();
}

}  // namespace

int store_depth(std::uint64_t trial_count) {
  int depth = 1;
  std::uint64_t capacity = 16;
  while (depth < 16 && capacity < trial_count) {
    capacity <<= 4;
    ++depth;
  }
  return depth;
}

void StoreWriter::add_scenario(std::string spec,
                               std::span<const ExecutionTranscript> transcripts) {
  scenarios_.push_back(StoreScenario{std::move(spec), leaf_hashes_.size(), transcripts.size()});
  for (const ExecutionTranscript& transcript : transcripts) {
    const Digest256 key = transcript.content_key();
    const auto [it, inserted] = blob_index_.try_emplace(key, blobs_.size());
    if (inserted) blobs_.push_back(transcript.encode());
    logical_blob_bytes_ += blobs_[it->second].size();
    leaf_hashes_.push_back(key);
    leaf_blob_index_.push_back(it->second);
  }
}

std::vector<std::uint8_t> StoreWriter::finish() const {
  if (leaf_hashes_.empty()) {
    throw std::logic_error("StoreWriter: no transcripts added — nothing to store");
  }
  std::vector<std::uint8_t> out{kStoreMagic[0], kStoreMagic[1], kStoreMagic[2],
                                kStoreMagic[3], kStoreVersion};

  // Leaf records at first use, in trial order.
  std::vector<StoreNodeRef> blob_refs(blobs_.size());
  std::vector<bool> written(blobs_.size(), false);
  std::uint64_t stored_blob_bytes = 0;
  for (std::size_t trial = 0; trial < leaf_blob_index_.size(); ++trial) {
    const std::size_t index = leaf_blob_index_[trial];
    if (written[index]) continue;
    written[index] = true;
    const std::vector<std::uint8_t>& blob = blobs_[index];
    const std::uint64_t offset = out.size();
    out.push_back('L');
    leb128_put(out, blob.size());
    out.insert(out.end(), blob.begin(), blob.end());
    blob_refs[index] = StoreNodeRef{leaf_hashes_[trial], offset, out.size() - offset};
    stored_blob_bytes += blob.size();
  }

  // Inner records, post-order (children before parent, slots ascending).
  const std::uint64_t trial_count = leaf_hashes_.size();
  const int depth = store_depth(trial_count);
  const std::function<StoreNodeRef(int, std::uint64_t)> write_subtree =
      [&](int level, std::uint64_t base) -> StoreNodeRef {
    std::array<std::optional<StoreNodeRef>, 16> children{};
    const std::uint64_t span = subtree_span(level - 1);
    for (int slot = 0; slot < 16; ++slot) {
      const std::uint64_t child_base = base + static_cast<std::uint64_t>(slot) * span;
      if (child_base >= trial_count) break;
      if (level == 1) {
        children[slot] = blob_refs[leaf_blob_index_[child_base]];
      } else {
        children[slot] = write_subtree(level - 1, child_base);
      }
    }
    const Digest256 hash = inner_hash(level, children);
    const std::uint64_t offset = out.size();
    out.push_back('I');
    out.push_back(static_cast<std::uint8_t>(level));
    std::uint64_t bitmap = 0;
    for (int slot = 0; slot < 16; ++slot) {
      if (children[slot]) bitmap |= 1ull << slot;
    }
    leb128_put(out, bitmap);
    for (int slot = 0; slot < 16; ++slot) {
      if (!children[slot]) continue;
      out.insert(out.end(), children[slot]->hash.bytes.begin(),
                 children[slot]->hash.bytes.end());
      leb128_put(out, children[slot]->offset);
      leb128_put(out, children[slot]->length);
    }
    return StoreNodeRef{hash, offset, out.size() - offset};
  };
  const StoreNodeRef root = write_subtree(depth, 0);

  // Meta record.
  const std::uint64_t meta_offset = out.size();
  out.push_back('M');
  leb128_put(out, scenarios_.size());
  for (const StoreScenario& scenario : scenarios_) {
    leb128_put(out, scenario.spec.size());
    out.insert(out.end(), scenario.spec.begin(), scenario.spec.end());
    leb128_put(out, scenario.base);
    leb128_put(out, scenario.trials);
  }
  leb128_put(out, blobs_.size());
  leb128_put(out, stored_blob_bytes);
  leb128_put(out, logical_blob_bytes_);
  const std::uint64_t meta_length = out.size() - meta_offset;

  // Fixed-size footer, so a reader finds the roots by seeking to the end.
  put_u64le(out, meta_offset);
  put_u64le(out, meta_length);
  put_u64le(out, root.offset);
  put_u64le(out, root.length);
  put_u64le(out, trial_count);
  out.insert(out.end(), root.hash.bytes.begin(), root.hash.bytes.end());
  out.insert(out.end(), std::begin(kStoreEndMagic), std::end(kStoreEndMagic));
  return out;
}

void StoreWriter::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> image = finish();
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("StoreWriter: cannot open " + path + " for writing");
  file.write(reinterpret_cast<const char*>(image.data()),
             static_cast<std::streamsize>(image.size()));
  if (!file) throw std::runtime_error("StoreWriter: write to " + path + " failed");
}

StoreReader StoreReader::open_file(const std::string& path) {
  StoreReader reader;
  reader.file_.open(path, std::ios::binary);
  if (!reader.file_) {
    throw std::invalid_argument("store: cannot open " + path);
  }
  reader.file_backed_ = true;
  reader.file_.seekg(0, std::ios::end);
  reader.size_ = static_cast<std::uint64_t>(reader.file_.tellg());
  reader.parse_trailer_and_meta();
  return reader;
}

StoreReader StoreReader::from_bytes(std::vector<std::uint8_t> bytes) {
  StoreReader reader;
  reader.bytes_ = std::move(bytes);
  reader.file_backed_ = false;
  reader.size_ = reader.bytes_.size();
  reader.parse_trailer_and_meta();
  return reader;
}

std::vector<std::uint8_t> StoreReader::read_at(std::uint64_t offset,
                                               std::uint64_t length) const {
  if (length > size_ || offset > size_ - length) {
    throw std::invalid_argument("store: record at offset " + std::to_string(offset) +
                                " length " + std::to_string(length) +
                                " runs past the end of the store (" +
                                std::to_string(size_) + " bytes)");
  }
  std::vector<std::uint8_t> out(length);
  if (file_backed_) {
    file_.clear();
    file_.seekg(static_cast<std::streamoff>(offset));
    file_.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(length));
    if (static_cast<std::uint64_t>(file_.gcount()) != length) {
      throw std::invalid_argument("store: short read at offset " + std::to_string(offset));
    }
  } else {
    std::copy_n(bytes_.begin() + static_cast<std::ptrdiff_t>(offset), length, out.begin());
  }
  return out;
}

void StoreReader::parse_trailer_and_meta() {
  if (size_ < 5 + kFooterSize) {
    throw std::invalid_argument("store: too small to hold a header and footer");
  }
  const std::vector<std::uint8_t> header = read_at(0, 5);
  if (!std::equal(std::begin(kStoreMagic), std::end(kStoreMagic), header.begin())) {
    throw std::invalid_argument("store: bad magic (expected FLST)");
  }
  if (header[4] != kStoreVersion) {
    throw std::invalid_argument("store: unsupported version " + std::to_string(header[4]) +
                                " (this build reads version " +
                                std::to_string(kStoreVersion) + ")");
  }
  const std::vector<std::uint8_t> footer = read_at(size_ - kFooterSize, kFooterSize);
  if (!std::equal(std::begin(kStoreEndMagic), std::end(kStoreEndMagic),
                  footer.end() - 4)) {
    throw std::invalid_argument("store: bad end magic (expected FLSE) — truncated file?");
  }
  const std::uint64_t meta_offset = get_u64le(footer, 0);
  const std::uint64_t meta_length = get_u64le(footer, 8);
  root_.offset = get_u64le(footer, 16);
  root_.length = get_u64le(footer, 24);
  trial_count_ = get_u64le(footer, 32);
  std::copy_n(footer.begin() + 40, 32, root_.hash.bytes.begin());
  if (trial_count_ == 0) {
    throw std::invalid_argument("store: zero trials");
  }
  depth_ = store_depth(trial_count_);
  const std::uint64_t body_end = size_ - kFooterSize;
  if (meta_length == 0 || meta_offset < 5 || meta_offset > body_end ||
      meta_length > body_end - meta_offset) {
    throw std::invalid_argument("store: meta record out of bounds");
  }
  if (root_.length == 0 || root_.offset < 5 || root_.offset > body_end ||
      root_.length > body_end - root_.offset) {
    throw std::invalid_argument("store: root record out of bounds");
  }

  const std::vector<std::uint8_t> meta = read_at(meta_offset, meta_length);
  if (meta[0] != 'M') {
    throw std::invalid_argument("store: meta record has bad tag");
  }
  std::size_t i = 1;
  const std::uint64_t scenario_count = leb128_get(meta, i);
  if (scenario_count > meta.size()) {
    throw std::invalid_argument("store: scenario count exceeds the meta record");
  }
  std::uint64_t expected_base = 0;
  for (std::uint64_t s = 0; s < scenario_count; ++s) {
    StoreScenario scenario;
    const std::uint64_t spec_length = leb128_get(meta, i);
    if (spec_length > meta.size() - i) {
      throw std::invalid_argument("store: scenario " + std::to_string(s) +
                                  " spec is truncated");
    }
    scenario.spec.assign(meta.begin() + static_cast<std::ptrdiff_t>(i),
                         meta.begin() + static_cast<std::ptrdiff_t>(i + spec_length));
    i += spec_length;
    scenario.base = leb128_get(meta, i);
    scenario.trials = leb128_get(meta, i);
    if (scenario.base != expected_base) {
      throw std::invalid_argument("store: scenario " + std::to_string(s) +
                                  " base " + std::to_string(scenario.base) +
                                  " is not contiguous (expected " +
                                  std::to_string(expected_base) + ")");
    }
    expected_base += scenario.trials;
    scenarios_.push_back(std::move(scenario));
  }
  if (expected_base != trial_count_) {
    throw std::invalid_argument("store: scenario trials sum to " +
                                std::to_string(expected_base) + " but the footer claims " +
                                std::to_string(trial_count_));
  }
  unique_blobs_ = leb128_get(meta, i);
  stored_blob_bytes_ = leb128_get(meta, i);
  logical_blob_bytes_ = leb128_get(meta, i);
  if (i != meta.size()) {
    throw std::invalid_argument("store: trailing bytes in the meta record");
  }
}

StoreInnerNode StoreReader::read_inner(const StoreNodeRef& ref) const {
  const std::vector<std::uint8_t> record = read_at(ref.offset, ref.length);
  ++nodes_read_;
  if (record.size() < 2 || record[0] != 'I') {
    throw std::invalid_argument("store: expected an inner record at offset " +
                                std::to_string(ref.offset));
  }
  StoreInnerNode node;
  node.level = record[1];
  if (node.level < 1 || node.level > 16) {
    throw std::invalid_argument("store: inner record at offset " +
                                std::to_string(ref.offset) + " has bad level " +
                                std::to_string(node.level));
  }
  std::size_t i = 2;
  const std::uint64_t bitmap = leb128_get(record, i);
  if (bitmap > 0xffff) {
    throw std::invalid_argument("store: inner record at offset " +
                                std::to_string(ref.offset) + " has a bad presence bitmap");
  }
  for (int slot = 0; slot < 16; ++slot) {
    if ((bitmap & (1ull << slot)) == 0) continue;
    if (record.size() - i < 32) {
      throw std::invalid_argument("store: inner record at offset " +
                                  std::to_string(ref.offset) + " is truncated");
    }
    StoreNodeRef child;
    std::copy_n(record.begin() + static_cast<std::ptrdiff_t>(i), 32,
                child.hash.bytes.begin());
    i += 32;
    child.offset = leb128_get(record, i);
    child.length = leb128_get(record, i);
    node.children[slot] = child;
  }
  if (i != record.size()) {
    throw std::invalid_argument("store: trailing bytes in the inner record at offset " +
                                std::to_string(ref.offset));
  }
  if (inner_hash(node.level, node.children) != ref.hash) {
    throw std::invalid_argument("store: inner node at offset " + std::to_string(ref.offset) +
                                " does not match its claimed hash — tampered or corrupt");
  }
  return node;
}

std::vector<std::uint8_t> StoreReader::read_leaf(const StoreNodeRef& ref) const {
  const std::vector<std::uint8_t> record = read_at(ref.offset, ref.length);
  ++nodes_read_;
  if (record.size() < 2 || record[0] != 'L') {
    throw std::invalid_argument("store: expected a leaf record at offset " +
                                std::to_string(ref.offset));
  }
  std::size_t i = 1;
  const std::uint64_t blob_length = leb128_get(record, i);
  if (blob_length != record.size() - i) {
    throw std::invalid_argument("store: leaf record at offset " + std::to_string(ref.offset) +
                                " has length " + std::to_string(blob_length) +
                                " but carries " + std::to_string(record.size() - i) +
                                " bytes");
  }
  std::vector<std::uint8_t> blob(record.begin() + static_cast<std::ptrdiff_t>(i),
                                 record.end());
  if (Sha256::of(blob) != ref.hash) {
    throw std::invalid_argument("store: leaf at offset " + std::to_string(ref.offset) +
                                " does not match its claimed hash — tampered or corrupt");
  }
  return blob;
}

// GCC 12 flags the optional child access below as maybe-uninitialized even
// though read_inner() value-initializes every slot; silence just this spot.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
std::vector<std::uint8_t> StoreReader::read_blob(std::uint64_t trial) const {
  if (trial >= trial_count_) {
    throw std::invalid_argument("store: trial " + std::to_string(trial) +
                                " out of range (store holds " +
                                std::to_string(trial_count_) + ")");
  }
  StoreNodeRef ref = root_;
  StoreInnerNode node;
  for (int level = depth_; level >= 1; --level) {
    node = read_inner(ref);
    if (node.level != level) {
      throw std::invalid_argument("store: inner node at offset " + std::to_string(ref.offset) +
                                  " has level " + std::to_string(node.level) +
                                  " where " + std::to_string(level) + " was expected");
    }
    const int slot = static_cast<int>((trial >> (4 * (level - 1))) & 0xf);
    if (!node.children[slot]) {
      throw std::invalid_argument("store: trial " + std::to_string(trial) +
                                  " has no leaf (missing child at level " +
                                  std::to_string(level) + ")");
    }
    ref = *node.children[slot];
  }
  return read_leaf(ref);
}
#pragma GCC diagnostic pop

ExecutionTranscript StoreReader::read_transcript(std::uint64_t trial) const {
  return ExecutionTranscript::decode(read_blob(trial));
}

namespace {

/// Event-level diff of the first divergent trial (first_divergence).
SyncReport::First leaf_diff(const StoreReader& a, const StoreReader& b,
                            const StoreNodeRef& ra, const StoreNodeRef& rb,
                            std::uint64_t trial) {
  SyncReport::First first;
  first.trial = trial;
  try {
    if (const auto divergence = first_divergence(ExecutionTranscript::decode(a.read_leaf(ra)),
                                                 ExecutionTranscript::decode(b.read_leaf(rb)))) {
      first.event_index = divergence->index;
      first.what = divergence->what;
    }
  } catch (const std::exception& error) {
    first.what = std::string("leaf unreadable: ") + error.what();
  }
  return first;
}

}  // namespace

SyncReport sync_stores(const StoreReader& a, const StoreReader& b,
                       std::size_t max_divergent) {
  SyncReport report;
  a.reset_nodes_read();
  b.reset_nodes_read();

  if (a.trial_count() != b.trial_count()) {
    report.meta_divergence = "trial counts differ (" + std::to_string(a.trial_count()) +
                             " vs " + std::to_string(b.trial_count()) + ")";
    return report;
  }
  if (a.scenarios() != b.scenarios()) {
    const auto& sa = a.scenarios();
    const auto& sb = b.scenarios();
    if (sa.size() != sb.size()) {
      report.meta_divergence = "scenario counts differ (" + std::to_string(sa.size()) +
                               " vs " + std::to_string(sb.size()) + ")";
    } else {
      for (std::size_t i = 0; i < sa.size(); ++i) {
        if (sa[i] == sb[i]) continue;
        report.meta_divergence = "scenario " + std::to_string(i) + " differs: \"" +
                                 sa[i].spec + "\" (" + std::to_string(sa[i].trials) +
                                 " trials) vs \"" + sb[i].spec + "\" (" +
                                 std::to_string(sb[i].trials) + " trials)";
        break;
      }
    }
    return report;
  }

  if (a.root_hash() == b.root_hash()) {
    // Equal roots prove equal trees: no tree node needs reading.
    report.identical = true;
    report.nodes_read_a = a.nodes_read();
    report.nodes_read_b = b.nodes_read();
    return report;
  }

  bool stopped = false;
  const std::function<void(const StoreNodeRef&, const StoreNodeRef&, int, std::uint64_t)>
      walk = [&](const StoreNodeRef& ra, const StoreNodeRef& rb, int level,
                 std::uint64_t base) {
        if (stopped) return;
        const StoreInnerNode na = a.read_inner(ra);
        const StoreInnerNode nb = b.read_inner(rb);
        const std::uint64_t span = subtree_span(level - 1);
        for (int slot = 0; slot < 16 && !stopped; ++slot) {
          const auto& ca = na.children[slot];
          const auto& cb = nb.children[slot];
          if (!ca && !cb) continue;
          const std::uint64_t child_base = base + static_cast<std::uint64_t>(slot) * span;
          if (!ca || !cb) {
            // Equal trial counts make presence patterns equal in honest
            // stores; a mismatch means one side lost this whole subtree.
            report.divergent_trials.push_back(child_base);
            if (!report.first) {
              report.first = SyncReport::First{
                  child_base, 0,
                  std::string("subtree present only in store ") + (ca ? "A" : "B")};
            }
          } else if (ca->hash == cb->hash) {
            continue;
          } else if (level == 1) {
            report.divergent_trials.push_back(child_base);
            if (!report.first) report.first = leaf_diff(a, b, *ca, *cb, child_base);
          } else {
            walk(*ca, *cb, level - 1, child_base);
          }
          if (report.divergent_trials.size() >= max_divergent) {
            report.truncated = true;
            stopped = true;
          }
        }
      };
  walk(a.root(), b.root(), a.depth(), 0);

  report.identical = report.divergent_trials.empty() && !report.first;
  report.nodes_read_a = a.nodes_read();
  report.nodes_read_b = b.nodes_read();
  return report;
}

}  // namespace fle
