// Streaming INFLATE (RFC 1951) with zlib framing (RFC 1950).
//
// The Inflater is incremental: feed it compressed bytes as they arrive off
// the network and it produces whatever output is decodable so far. This
// matters for the reproduction: the paper's client parses HTML out of the
// *first TCP segment* of a compressed response, which is only possible with
// a streaming decompressor.
//
// Rollback strategy: input is accumulated internally; before decoding each
// symbol group the bit position is checkpointed, and if the input runs dry
// mid-symbol the position is restored and decoding resumes on the next feed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "deflate/bitio.hpp"
#include "deflate/huffman.hpp"

namespace hsim::deflate {

class Inflater {
 public:
  enum class Status {
    kInProgress,  // more input needed
    kDone,        // stream complete, trailer verified
    kError,       // malformed stream (see error())
  };

  enum class Format { kZlib, kRaw };

  explicit Inflater(Format format = Format::kZlib) : format_(format) {}

  /// Supplies the preset dictionary used when the stream's FDICT flag is
  /// set (RFC 1950 §2.2). Must be called before the header is consumed;
  /// streams demanding a dictionary fail without one or with a mismatched
  /// DICTID.
  void set_dictionary(std::span<const std::uint8_t> dictionary) {
    dictionary_.assign(dictionary.begin(), dictionary.end());
    have_dictionary_ = true;
  }

  /// Feeds compressed bytes; decompressed bytes are appended to `out`.
  Status feed(std::span<const std::uint8_t> in, std::vector<std::uint8_t>& out);

  Status status() const { return status_; }
  const std::string& error() const { return error_; }
  std::size_t total_in() const { return input_.size(); }

 private:
  enum class State {
    kZlibHeader,
    kBlockHeader,
    kStoredLengths,
    kStoredData,
    kCompressedData,   // fixed or dynamic, codes already built
    kDynamicHeader,    // HLIT/HDIST/HCLEN
    kDynamicCodeLengths,
    kAdler,
    kDone,
    kError,
  };

  Status run(std::vector<std::uint8_t>& out);
  bool step(BitReader& reader, std::vector<std::uint8_t>& out,
            bool& need_more);
  void emit_byte(std::uint8_t byte, std::vector<std::uint8_t>& out);
  bool copy_match(unsigned length, unsigned dist,
                  std::vector<std::uint8_t>& out);
  Status fail(std::string message);

  Format format_;
  State state_ = State::kZlibHeader;
  Status status_ = Status::kInProgress;
  std::string error_;

  std::vector<std::uint8_t> input_;  // accumulated compressed bytes
  BitReader::Position pos_;          // resume point

  // Block state.
  bool final_block_ = false;
  unsigned stored_remaining_ = 0;
  HuffmanDecoder litlen_;
  HuffmanDecoder dist_;

  // Dynamic header state.
  unsigned hlit_ = 0, hdist_ = 0, hclen_ = 0;
  HuffmanDecoder cl_decoder_;
  std::vector<std::uint8_t> dyn_lengths_;  // combined litlen+dist lengths

  // 32 KB sliding window for back-references.
  std::vector<std::uint8_t> window_;
  std::size_t window_pos_ = 0;
  std::size_t window_filled_ = 0;

  std::uint32_t adler_ = 1;
  std::vector<std::uint8_t> dictionary_;
  bool have_dictionary_ = false;

  static constexpr std::size_t kWindow = 32768;
};

/// One-shot convenience: returns empty vector + false on malformed input.
struct InflateResult {
  std::vector<std::uint8_t> data;
  bool ok = false;
  std::string error;
};
InflateResult zlib_decompress(std::span<const std::uint8_t> input);

}  // namespace hsim::deflate
