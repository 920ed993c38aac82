#include "buf/bytes.hpp"

#include <algorithm>

namespace hsim::buf {

namespace {

/// Allocation granularity for copied appends. Small enough that a lone
/// request head does not waste much, large enough that byte-at-a-time parser
/// feeds coalesce into a handful of blocks.
constexpr std::size_t kMinBlock = 512;
constexpr std::size_t kMaxBlock = 64 * 1024;

std::shared_ptr<std::uint8_t[]> allocate_block(std::size_t n) {
  HSIM_BUF_COUNT(allocations, 1);
  return std::shared_ptr<std::uint8_t[]>(new std::uint8_t[n]);
}

}  // namespace

CopyCounters& counters() {
  static CopyCounters instance;
  return instance;
}

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

Bytes::Bytes(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  auto block = allocate_block(data.size());
  std::memcpy(block.get(), data.data(), data.size());
  HSIM_BUF_COUNT(bytes_copied, data.size());
  data_ = block.get();
  size_ = data.size();
  owner_ = std::move(block);
}

Bytes::Bytes(std::vector<std::uint8_t>&& data) {
  if (data.empty()) return;
  auto holder = std::make_shared<std::vector<std::uint8_t>>(std::move(data));
  HSIM_BUF_COUNT(allocations, 1);
  HSIM_BUF_COUNT(bytes_shared, holder->size());
  data_ = holder->data();
  size_ = holder->size();
  owner_ = std::shared_ptr<const std::uint8_t[]>(std::move(holder), data_);
}

Bytes::Bytes(std::string&& text) {
  if (text.empty()) return;
  auto holder = std::make_shared<std::string>(std::move(text));
  HSIM_BUF_COUNT(allocations, 1);
  HSIM_BUF_COUNT(bytes_shared, holder->size());
  data_ = reinterpret_cast<const std::uint8_t*>(holder->data());
  size_ = holder->size();
  owner_ = std::shared_ptr<const std::uint8_t[]>(std::move(holder), data_);
}

Bytes::Bytes(std::size_t n, std::uint8_t fill) {
  if (n == 0) return;
  auto block = allocate_block(n);
  std::memset(block.get(), fill, n);
  HSIM_BUF_COUNT(bytes_copied, n);
  data_ = block.get();
  size_ = n;
  owner_ = std::move(block);
}

Bytes Bytes::slice(std::size_t pos, std::size_t n) const {
  pos = std::min(pos, size_);
  n = std::min(n, size_ - pos);
  HSIM_BUF_COUNT(bytes_shared, n);
  return Bytes(owner_, data_ + pos, n);
}

std::vector<std::uint8_t> Bytes::to_vector() const {
  HSIM_BUF_COUNT(bytes_copied, size_);
  return std::vector<std::uint8_t>(data_, data_ + size_);
}

// ---------------------------------------------------------------------------
// Chain
// ---------------------------------------------------------------------------

Chain& Chain::operator=(const Chain& other) {
  if (this == &other) return *this;
  nodes_ = other.nodes_;
  size_ = other.size_;
  tail_block_.reset();
  tail_cap_ = 0;
  tail_used_ = 0;
  HSIM_BUF_COUNT(bytes_shared, size_);
  return *this;
}

void Chain::clear() {
  nodes_.clear();
  size_ = 0;
  tail_block_.reset();
  tail_cap_ = 0;
  tail_used_ = 0;
}

void Chain::push_node(Bytes bytes) {
  size_ += bytes.size();
  nodes_.push_back(std::move(bytes));
}

void Chain::append(Bytes bytes) {
  if (bytes.empty()) return;
  HSIM_BUF_COUNT(bytes_shared, bytes.size());
  // A slice that directly continues the back node (same owning block,
  // contiguous storage) extends it instead of adding a node, so bodies
  // assembled from many tiny split_front() slices stay O(blocks) long
  // rather than O(slices).
  if (!nodes_.empty()) {
    Bytes& back = nodes_.back();
    if (back.owner_ == bytes.owner_ && back.end() == bytes.data_) {
      back.size_ += bytes.size_;
      size_ += bytes.size_;
      return;
    }
  }
  push_node(std::move(bytes));
}

void Chain::append(const Chain& other) {
  for (const Bytes& node : other.nodes_) append(node);
}

void Chain::append(Chain&& other) {
  if (nodes_.empty() && tail_block_ == nullptr) {
    *this = std::move(other);
    return;
  }
  HSIM_BUF_COUNT(bytes_shared, other.size_);
  for (Bytes& node : other.nodes_) push_node(std::move(node));
  other.clear();
}

const std::uint8_t* Chain::tail_write_pos() const {
  return tail_block_ ? tail_block_.get() + tail_used_ : nullptr;
}

void Chain::append_copy(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  HSIM_BUF_COUNT(bytes_copied, data.size());

  // Fast path: extend the most recent node in place. Safe because no view
  // covers bytes past the node's current end.
  if (!nodes_.empty() && tail_block_ &&
      nodes_.back().end() == tail_write_pos() &&
      tail_used_ + data.size() <= tail_cap_) {
    std::memcpy(tail_block_.get() + tail_used_, data.data(), data.size());
    tail_used_ += data.size();
    nodes_.back().size_ += data.size();
    size_ += data.size();
    return;
  }

  // Spare room in the tail block but the back node no longer abuts it (it
  // was split off or a shared node was appended after it): start a new node
  // in the same block.
  if (tail_block_ && tail_used_ + data.size() <= tail_cap_) {
    std::uint8_t* dst = tail_block_.get() + tail_used_;
    std::memcpy(dst, data.data(), data.size());
    tail_used_ += data.size();
    push_node(Bytes(tail_block_, dst, data.size()));
    return;
  }

  // Allocate a fresh tail block with growth headroom.
  std::size_t cap = std::max(kMinBlock, tail_cap_ * 2);
  cap = std::min(cap, kMaxBlock);
  cap = std::max(cap, data.size());
  tail_block_ = allocate_block(cap);
  tail_cap_ = cap;
  std::memcpy(tail_block_.get(), data.data(), data.size());
  tail_used_ = data.size();
  push_node(Bytes(tail_block_, tail_block_.get(), data.size()));
}

void Chain::pop_front(std::size_t n) {
  n = std::min(n, size_);
  size_ -= n;
  while (n > 0) {
    Bytes& front = nodes_.front();
    if (front.size() <= n) {
      n -= front.size();
      nodes_.pop_front();
    } else {
      front.data_ += n;
      front.size_ -= n;
      n = 0;
    }
  }
}

Chain Chain::split_front(std::size_t n) {
  n = std::min(n, size_);
  Chain out;
  while (n > 0) {
    Bytes& front = nodes_.front();
    if (front.size() <= n) {
      n -= front.size();
      size_ -= front.size();
      HSIM_BUF_COUNT(bytes_shared, front.size());
      out.push_node(std::move(front));
      nodes_.pop_front();
    } else {
      out.append(front.slice(0, n));
      front.data_ += n;
      front.size_ -= n;
      size_ -= n;
      n = 0;
    }
  }
  return out;
}

Chain Chain::slice(std::size_t pos, std::size_t n) const {
  pos = std::min(pos, size_);
  n = std::min(n, size_ - pos);
  Chain out;
  for (const Bytes& node : nodes_) {
    if (n == 0) break;
    if (pos >= node.size()) {
      pos -= node.size();
      continue;
    }
    const std::size_t take = std::min(n, node.size() - pos);
    out.append(node.slice(pos, take));
    pos = 0;
    n -= take;
  }
  return out;
}

Bytes Chain::slice_bytes(std::size_t pos, std::size_t n) const {
  pos = std::min(pos, size_);
  n = std::min(n, size_ - pos);
  if (n == 0) return Bytes();
  // Zero-copy when the range lives inside one node.
  std::size_t skip = pos;
  for (const Bytes& node : nodes_) {
    if (skip < node.size()) {
      if (node.size() - skip >= n) return node.slice(skip, n);
      break;
    }
    skip -= node.size();
  }
  // Spans nodes: flatten.
  auto block = allocate_block(n);
  copy_to(pos, {block.get(), n});
  const std::uint8_t* data = block.get();
  return Bytes(std::move(block), data, n);
}

std::uint8_t Chain::operator[](std::size_t pos) const {
  for (const Bytes& node : nodes_) {
    if (pos < node.size()) return node[pos];
    pos -= node.size();
  }
  return 0;
}

void Chain::copy_to(std::size_t pos, std::span<std::uint8_t> out) const {
  HSIM_BUF_COUNT(bytes_copied, out.size());
  std::size_t written = 0;
  for (const Bytes& node : nodes_) {
    if (written == out.size()) break;
    if (pos >= node.size()) {
      pos -= node.size();
      continue;
    }
    const std::size_t take =
        std::min(out.size() - written, node.size() - pos);
    std::memcpy(out.data() + written, node.data() + pos, take);
    written += take;
    pos = 0;
  }
}

std::vector<std::uint8_t> Chain::to_vector() const {
  std::vector<std::uint8_t> out(size_);
  copy_to(0, {out.data(), out.size()});
  return out;
}

std::string Chain::to_string(std::size_t pos, std::size_t n) const {
  pos = std::min(pos, size_);
  n = std::min(n, size_ - pos);
  std::string out;
  out.resize(n);
  copy_to(pos, {reinterpret_cast<std::uint8_t*>(out.data()), n});
  return out;
}

std::size_t Chain::find(std::string_view needle, std::size_t from) const {
  if (needle.empty()) return std::min(from, size_);
  if (needle.size() > size_ || from > size_ - needle.size()) return npos;
  const std::uint8_t first = static_cast<std::uint8_t>(needle[0]);

  // Walk nodes, using memchr within each for first-byte candidates, then
  // verify the remainder across node boundaries.
  std::size_t node_start = 0;  // absolute offset of nodes_[ni]
  for (std::size_t ni = 0; ni < nodes_.size(); ++ni) {
    const Bytes& node = nodes_[ni];
    if (from >= node_start + node.size()) {
      node_start += node.size();
      continue;
    }
    std::size_t local = from > node_start ? from - node_start : 0;
    while (local < node.size()) {
      const void* hit = std::memchr(node.data() + local, first,
                                    node.size() - local);
      if (hit == nullptr) break;
      const std::size_t abs =
          node_start + (static_cast<const std::uint8_t*>(hit) - node.data());
      if (abs + needle.size() > size_) return npos;
      // Verify the tail of the needle, possibly crossing into later nodes.
      bool match = true;
      std::size_t check_ni = ni;
      std::size_t check_local =
          static_cast<std::size_t>(static_cast<const std::uint8_t*>(hit) -
                                   node.data());
      for (std::size_t k = 0; k < needle.size(); ++k) {
        while (check_local >= nodes_[check_ni].size()) {
          check_local = 0;
          ++check_ni;
        }
        if (nodes_[check_ni][check_local] !=
            static_cast<std::uint8_t>(needle[k])) {
          match = false;
          break;
        }
        ++check_local;
      }
      if (match) return abs;
      local = abs - node_start + 1;
    }
    node_start += node.size();
    if (node_start + needle.size() > size_ + needle.size()) break;
  }
  return npos;
}

bool Chain::operator==(const Chain& other) const {
  if (size_ != other.size_) return false;
  // Dual-cursor byte-run comparison without flattening.
  std::size_t ai = 0, ao = 0, bi = 0, bo = 0;
  std::size_t remaining = size_;
  while (remaining > 0) {
    while (ao == nodes_[ai].size()) {
      ++ai;
      ao = 0;
    }
    while (bo == other.nodes_[bi].size()) {
      ++bi;
      bo = 0;
    }
    const std::size_t run = std::min(
        {nodes_[ai].size() - ao, other.nodes_[bi].size() - bo, remaining});
    if (std::memcmp(nodes_[ai].data() + ao, other.nodes_[bi].data() + bo,
                    run) != 0) {
      return false;
    }
    ao += run;
    bo += run;
    remaining -= run;
  }
  return true;
}

bool Chain::equals(std::span<const std::uint8_t> data) const {
  if (size_ != data.size()) return false;
  std::size_t off = 0;
  for (const Bytes& node : nodes_) {
    if (node.size() > 0 &&
        std::memcmp(node.data(), data.data() + off, node.size()) != 0) {
      return false;
    }
    off += node.size();
  }
  return true;
}

}  // namespace hsim::buf
