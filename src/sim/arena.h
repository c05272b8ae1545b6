#pragma once
// StrategyArena: a monotonic bump allocator with per-trial rewind.
//
// One execution needs n short-lived strategy objects; building them with
// make_unique puts n allocator round-trips on every trial.  An arena-reusing
// worker instead placement-news strategies into chunks that survive across
// trials: rewind() runs the destructors (in reverse construction order) and
// resets the bump pointer, so the next trial's emplace calls reuse the same
// memory.  After the first trial of a scenario the arena is allocation-free.
//
// Wrapper strategies build their inner strategy in the same arena (the
// indexing wrapper does so mid-run, once its position is known) and hold it
// by raw pointer; neither destructor touches the other object, so either
// construction order is safe.  The arena is not synchronised: objects are
// emplaced into one arena from one thread at a time.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace fle {

class StrategyArena {
 public:
  StrategyArena() = default;
  ~StrategyArena() { rewind(); }

  StrategyArena(const StrategyArena&) = delete;
  StrategyArena& operator=(const StrategyArena&) = delete;

  /// Constructs a T inside the arena.  Destroyed at the next rewind().
  template <typename T, typename... Args>
  T* emplace(Args&&... args) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned strategies need a dedicated allocation path");
    void* slot = allocate(sizeof(T), alignof(T));
    T* object = new (slot) T(std::forward<Args>(args)...);
    finalizers_.push_back({object, [](void* p) { static_cast<T*>(p)->~T(); }});
    return object;
  }

  /// Destroys every object (reverse construction order) and resets the bump
  /// pointer.  Chunk memory and bookkeeping capacity are retained.
  void rewind() {
    for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
      it->destroy(it->object);
    }
    finalizers_.clear();
    for (Chunk& chunk : chunks_) chunk.used = 0;
    chunk_cursor_ = 0;
  }

  [[nodiscard]] std::size_t live_objects() const { return finalizers_.size(); }
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& chunk : chunks_) total += chunk.size;
    return total;
  }

 private:
  struct Finalizer {
    void* object;
    void (*destroy)(void*);
  };
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static constexpr std::size_t kChunkBytes = 16 * 1024;

  void* allocate(std::size_t size, std::size_t align) {
    for (;;) {
      if (chunk_cursor_ < chunks_.size()) {
        Chunk& chunk = chunks_[chunk_cursor_];
        const std::size_t aligned = (chunk.used + align - 1) & ~(align - 1);
        if (aligned + size <= chunk.size) {
          chunk.used = aligned + size;
          return chunk.data.get() + aligned;
        }
        ++chunk_cursor_;
        continue;
      }
      Chunk chunk;
      chunk.size = size + align > kChunkBytes ? size + align : kChunkBytes;
      chunk.data = std::make_unique<std::byte[]>(chunk.size);
      chunks_.push_back(std::move(chunk));
    }
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_cursor_ = 0;
  std::vector<Finalizer> finalizers_;
};

}  // namespace fle
