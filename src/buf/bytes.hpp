// Zero-copy buffer primitives for the payload data path.
//
// `Bytes` is an immutable, ref-counted slice of a byte block: copying or
// slicing one never touches the underlying bytes, so a server body, the TCP
// segments carved out of it, the packets on the wire and the reassembled
// response on the client can all alias one allocation. `Chain` is a rope of
// `Bytes` nodes with O(1) amortised append, O(nodes) front-consume and
// zero-copy split/slice — the shape every per-connection buffer in the
// simulator (TCP send/receive queues, HTTP parser input, application output
// batches) now uses instead of `std::deque<uint8_t>` / `std::string`.
//
// Immutability contract: the bytes in [data(), data()+size()) of any Bytes
// view are never modified once the view exists. A Chain may keep appending
// into the *spare capacity* of the block backing its tail node; that region
// is invisible to every existing view, so retransmitted TCP segments and
// cached response bodies can safely alias buffers that are still growing.
//
// When compiled with -DHSIM_COUNT_COPIES the module counts every payload
// byte that is memcpy'd versus merely shared, plus backing-block
// allocations; `bench/micro_buffers` reports them (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hsim::buf {

/// Global copy/alloc accounting (single-threaded simulator; plain counters).
struct CopyCounters {
  std::uint64_t bytes_copied = 0;  ///< payload bytes physically memcpy'd
  std::uint64_t bytes_shared = 0;  ///< payload bytes moved by reference only
  std::uint64_t allocations = 0;   ///< backing blocks allocated

  void reset() { *this = CopyCounters{}; }
};

CopyCounters& counters();

#ifdef HSIM_COUNT_COPIES
#define HSIM_BUF_COUNT(field, n) (::hsim::buf::counters().field += (n))
#else
#define HSIM_BUF_COUNT(field, n) ((void)0)
#endif

inline constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

/// Immutable ref-counted byte slice. Copy = refcount bump; slice = new view
/// of the same block. The default instance is empty.
class Bytes {
 public:
  Bytes() = default;

  /// Copies `data` into a freshly allocated block (the one deliberate copy
  /// at the edge of the zero-copy world).
  explicit Bytes(std::span<const std::uint8_t> data);
  explicit Bytes(std::string_view text)
      : Bytes(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(text.data()), text.size())) {}

  /// Adopts an existing vector or string without copying its contents.
  explicit Bytes(std::vector<std::uint8_t>&& data);
  explicit Bytes(std::string&& text);

  /// A block of `n` copies of `fill`.
  Bytes(std::size_t n, std::uint8_t fill);

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const std::uint8_t* begin() const { return data_; }
  const std::uint8_t* end() const { return data_ + size_; }
  std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  std::span<const std::uint8_t> span() const { return {data_, size_}; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

  /// Zero-copy sub-slice [pos, pos+n) sharing this block. `n` is clamped to
  /// the remaining length.
  Bytes slice(std::size_t pos, std::size_t n = npos) const;

  /// Materialises an owned copy.
  std::vector<std::uint8_t> to_vector() const;

  bool operator==(const Bytes& other) const {
    return size_ == other.size_ &&
           (size_ == 0 || std::memcmp(data_, other.data_, size_) == 0);
  }
  bool operator==(std::span<const std::uint8_t> other) const {
    return size_ == other.size() &&
           (size_ == 0 || std::memcmp(data_, other.data(), size_) == 0);
  }

 private:
  friend class Chain;
  Bytes(std::shared_ptr<const std::uint8_t[]> owner, const std::uint8_t* data,
        std::size_t size)
      : owner_(std::move(owner)), data_(data), size_(size) {}

  std::shared_ptr<const std::uint8_t[]> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Rope of immutable slices: O(1) amortised append (small copied appends
/// coalesce into a shared growable tail block), O(1) zero-copy append of a
/// Bytes/Chain, O(nodes) pop_front / split_front, zero-copy slicing.
class Chain {
 public:
  Chain() = default;
  explicit Chain(Bytes bytes) { append(std::move(bytes)); }

  // Copies share every node (refcount bumps) but never the writable tail:
  // at most one Chain may extend a block's spare capacity.
  Chain(const Chain& other) : nodes_(other.nodes_), size_(other.size_) {
    HSIM_BUF_COUNT(bytes_shared, size_);
  }
  Chain& operator=(const Chain& other);
  // Moves transfer the writable tail and leave the source empty (a defaulted
  // move would leave stale scalar members behind).
  Chain(Chain&& other) noexcept
      : nodes_(std::move(other.nodes_)),
        size_(other.size_),
        tail_block_(std::move(other.tail_block_)),
        tail_cap_(other.tail_cap_),
        tail_used_(other.tail_used_) {
    other.clear();
  }
  Chain& operator=(Chain&& other) noexcept {
    if (this != &other) {
      nodes_ = std::move(other.nodes_);
      size_ = other.size_;
      tail_block_ = std::move(other.tail_block_);
      tail_cap_ = other.tail_cap_;
      tail_used_ = other.tail_used_;
      other.clear();
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();

  /// Appends a shared slice — no byte is copied.
  void append(Bytes bytes);
  void append(const Chain& other);
  void append(Chain&& other);

  /// Appends by copying, coalescing into the tail block when possible (the
  /// amortised path a parser feeding one byte at a time relies on).
  void append_copy(std::span<const std::uint8_t> data);
  void append_copy(std::string_view text) {
    append_copy(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  }

  /// Drops the first `n` bytes (clamped). O(nodes touched).
  void pop_front(std::size_t n);

  /// Removes and returns the first `n` bytes as a Chain of shared slices.
  Chain split_front(std::size_t n);

  /// Zero-copy sub-chain covering [pos, pos+n) (clamped).
  Chain slice(std::size_t pos, std::size_t n = npos) const;

  /// A single contiguous Bytes covering [pos, pos+n): zero-copy when the
  /// range lies within one node, flattened (one copy) otherwise.
  Bytes slice_bytes(std::size_t pos, std::size_t n) const;

  /// Flattens the whole chain into one Bytes (zero-copy if 0 or 1 node).
  Bytes to_bytes() const { return slice_bytes(0, size_); }

  std::uint8_t operator[](std::size_t pos) const;

  void copy_to(std::size_t pos, std::span<std::uint8_t> out) const;
  std::vector<std::uint8_t> to_vector() const;
  std::string to_string(std::size_t pos = 0, std::size_t n = npos) const;

  /// First occurrence of `needle` at or after `from`, crossing node
  /// boundaries; buf::npos if absent.
  std::size_t find(std::string_view needle, std::size_t from = 0) const;

  /// Invokes fn(std::span<const std::uint8_t>) for each contiguous run.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Bytes& node : nodes_) fn(node.span());
  }

  bool operator==(const Chain& other) const;
  bool equals(std::span<const std::uint8_t> data) const;
  bool equals(std::string_view text) const {
    return equals(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  }

  /// Number of underlying slices (diagnostics / tests).
  std::size_t node_count() const { return nodes_.size(); }

 private:
  const std::uint8_t* tail_write_pos() const;
  void push_node(Bytes bytes);

  std::deque<Bytes> nodes_;
  std::size_t size_ = 0;

  // Growable tail block: append_copy may extend the most recent node (or
  // start a new node) inside this block's unused capacity. Only the Chain
  // holding this pointer ever writes there, and only past every existing
  // view's end — see the immutability contract above.
  std::shared_ptr<std::uint8_t[]> tail_block_;
  std::size_t tail_cap_ = 0;
  std::size_t tail_used_ = 0;
};

inline bool operator==(const Chain& chain,
                       const std::vector<std::uint8_t>& v) {
  return chain.equals(std::span<const std::uint8_t>(v.data(), v.size()));
}
inline bool operator==(const std::vector<std::uint8_t>& v,
                       const Chain& chain) {
  return chain == v;
}

}  // namespace hsim::buf
