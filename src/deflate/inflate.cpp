#include "deflate/inflate.hpp"

#include <algorithm>
#include <array>

#include "deflate/checksum.hpp"
#include "deflate/tables.hpp"

namespace hsim::deflate {

Inflater::Status Inflater::feed(std::span<const std::uint8_t> in,
                                std::vector<std::uint8_t>& out) {
  if (status_ == Status::kError) return status_;
  input_.insert(input_.end(), in.begin(), in.end());
  if (format_ == Format::kRaw && state_ == State::kZlibHeader) {
    state_ = State::kBlockHeader;
  }
  return run(out);
}

Inflater::Status Inflater::fail(std::string message) {
  state_ = State::kError;
  status_ = Status::kError;
  error_ = std::move(message);
  return status_;
}

bool Inflater::emit_byte(std::uint8_t byte, std::vector<std::uint8_t>& out) {
  if (out_budget_ == 0) {
    fail(kOutputCapError);
    return false;
  }
  --out_budget_;
  out.push_back(byte);
  if (window_.size() < kWindow) {
    window_.push_back(byte);
  } else {
    window_[window_pos_] = byte;
  }
  window_pos_ = (window_pos_ + 1) % kWindow;
  window_filled_ = std::min(window_filled_ + 1, kWindow);
  adler_ = adler32(std::span(&byte, 1), adler_);
  return true;
}

bool Inflater::copy_match(unsigned length, unsigned dist,
                          std::vector<std::uint8_t>& out) {
  if (dist == 0 || dist > window_filled_) {
    fail("deflate: distance beyond window");
    return false;
  }
  for (unsigned i = 0; i < length; ++i) {
    const std::size_t src =
        (window_pos_ + kWindow - dist) % kWindow;
    const std::uint8_t byte =
        window_.size() < kWindow ? window_[window_.size() - dist]
                                 : window_[src];
    if (!emit_byte(byte, out)) return false;
  }
  return true;
}

Inflater::Status Inflater::run(std::vector<std::uint8_t>& out) {
  BitReader reader(input_);
  reader.seek(pos_);
  bool need_more = false;
  while (!need_more && state_ != State::kDone && state_ != State::kError) {
    if (!step(reader, out, need_more)) break;
  }
  pos_ = reader.tell();
  if (state_ == State::kDone) status_ = Status::kDone;
  return status_;
}

// Returns false to stop the loop (error recorded or done); sets need_more
// when input ran dry (position already rolled back).
bool Inflater::step(BitReader& reader, std::vector<std::uint8_t>& out,
                    bool& need_more) {
  const BitReader::Position checkpoint = reader.tell();
  auto rollback = [&] {
    reader.seek(checkpoint);
    need_more = true;
    return true;
  };

  switch (state_) {
    case State::kZlibHeader: {
      if (!reader.can_read(16)) return rollback();
      reader.align_to_byte();
      const std::uint8_t cmf = reader.read_aligned_byte();
      const std::uint8_t flg = reader.read_aligned_byte();
      if ((cmf & 0x0F) != 8) {
        fail("zlib: compression method is not deflate");
        return false;
      }
      if (((cmf >> 4) & 0x0F) > 7) {
        fail("zlib: window size too large");
        return false;
      }
      if ((cmf * 256u + flg) % 31 != 0) {
        fail("zlib: header check failed");
        return false;
      }
      if (flg & 0x20) {
        // FDICT: a 4-byte DICTID follows; the caller must have supplied the
        // matching dictionary via set_dictionary().
        if (!reader.can_read(32)) return rollback();
        std::uint32_t dictid = 0;
        for (int i = 0; i < 4; ++i) {
          dictid = (dictid << 8) | reader.read_aligned_byte();
        }
        if (!have_dictionary_) {
          fail("zlib: stream requires a preset dictionary");
          return false;
        }
        if (adler32(dictionary_) != dictid) {
          fail("zlib: preset dictionary id mismatch");
          return false;
        }
        // Prime the back-reference window without producing output.
        const std::size_t keep =
            std::min<std::size_t>(dictionary_.size(), kWindow);
        for (std::size_t i = dictionary_.size() - keep;
             i < dictionary_.size(); ++i) {
          const std::uint8_t byte = dictionary_[i];
          if (window_.size() < kWindow) {
            window_.push_back(byte);
          } else {
            window_[window_pos_] = byte;
          }
          window_pos_ = (window_pos_ + 1) % kWindow;
          window_filled_ = std::min(window_filled_ + 1, kWindow);
        }
      }
      state_ = State::kBlockHeader;
      return true;
    }

    case State::kBlockHeader: {
      if (!reader.can_read(3)) return rollback();
      final_block_ = reader.read_bit() != 0;
      const unsigned btype = reader.read_bits(2);
      if (btype == 0b00) {
        state_ = State::kStoredLengths;
      } else if (btype == 0b01) {
        const auto lit_lengths = fixed_litlen_lengths();
        const auto dist_lengths = fixed_dist_lengths();
        litlen_.build(lit_lengths);
        dist_.build(dist_lengths);
        state_ = State::kCompressedData;
      } else if (btype == 0b10) {
        state_ = State::kDynamicHeader;
      } else {
        fail("deflate: reserved block type");
        return false;
      }
      return true;
    }

    case State::kStoredLengths: {
      // LEN/NLEN are byte-aligned; alignment bits are consumed here, so the
      // checkpoint/rollback must cover both.
      BitReader probe = reader;
      probe.align_to_byte();
      if (!probe.can_read(32)) return rollback();
      reader.align_to_byte();
      const unsigned len = reader.read_aligned_byte() |
                           (reader.read_aligned_byte() << 8);
      const unsigned nlen = reader.read_aligned_byte() |
                            (reader.read_aligned_byte() << 8);
      if ((len ^ 0xFFFF) != nlen) {
        fail("deflate: stored block length check failed");
        return false;
      }
      stored_remaining_ = len;
      state_ = State::kStoredData;
      return true;
    }

    case State::kStoredData: {
      while (stored_remaining_ > 0) {
        if (!reader.can_read(8)) {
          need_more = true;
          return true;  // byte-aligned: consumed bytes stay consumed
        }
        if (!emit_byte(reader.read_aligned_byte(), out)) return false;
        --stored_remaining_;
      }
      state_ = final_block_ ? State::kAdler : State::kBlockHeader;
      if (state_ == State::kAdler && format_ == Format::kRaw) {
        state_ = State::kDone;
      }
      return true;
    }

    case State::kDynamicHeader: {
      if (!reader.can_read(14)) return rollback();
      hlit_ = reader.read_bits(5) + 257;
      hdist_ = reader.read_bits(5) + 1;
      hclen_ = reader.read_bits(4) + 4;
      // The code-length code lengths (3 bits each) follow immediately; they
      // are bounded (max 19*3 bits) so decode them in this step too.
      if (!reader.can_read(hclen_ * 3)) return rollback();
      std::array<std::uint8_t, 19> cl_lengths{};
      for (unsigned i = 0; i < hclen_; ++i) {
        cl_lengths[kCodeLengthOrder[i]] =
            static_cast<std::uint8_t>(reader.read_bits(3));
      }
      if (!cl_decoder_.build(cl_lengths)) {
        fail("deflate: invalid code-length code");
        return false;
      }
      dyn_lengths_.clear();
      state_ = State::kDynamicCodeLengths;
      return true;
    }

    case State::kDynamicCodeLengths: {
      while (dyn_lengths_.size() < hlit_ + hdist_) {
        const BitReader::Position sym_start = reader.tell();
        const int sym = cl_decoder_.decode(reader);
        if (sym == -1) {
          reader.seek(sym_start);
          need_more = true;
          return true;
        }
        if (sym < 0) {
          fail("deflate: bad code-length symbol");
          return false;
        }
        if (sym < 16) {
          dyn_lengths_.push_back(static_cast<std::uint8_t>(sym));
        } else if (sym == 16) {
          if (!reader.can_read(2)) {
            reader.seek(sym_start);
            need_more = true;
            return true;
          }
          if (dyn_lengths_.empty()) {
            fail("deflate: repeat with no previous length");
            return false;
          }
          const unsigned count = 3 + reader.read_bits(2);
          dyn_lengths_.insert(dyn_lengths_.end(), count, dyn_lengths_.back());
        } else {
          const unsigned extra = sym == 17 ? 3 : 7;
          if (!reader.can_read(extra)) {
            reader.seek(sym_start);
            need_more = true;
            return true;
          }
          const unsigned count =
              (sym == 17 ? 3 : 11) + reader.read_bits(extra);
          dyn_lengths_.insert(dyn_lengths_.end(), count, 0);
        }
      }
      if (dyn_lengths_.size() != hlit_ + hdist_) {
        fail("deflate: code length overflow");
        return false;
      }
      std::span<const std::uint8_t> all(dyn_lengths_);
      if (!litlen_.build(all.subspan(0, hlit_))) {
        fail("deflate: invalid literal/length code");
        return false;
      }
      if (!dist_.build(all.subspan(hlit_, hdist_))) {
        fail("deflate: invalid distance code");
        return false;
      }
      state_ = State::kCompressedData;
      return true;
    }

    case State::kCompressedData: {
      for (;;) {
        const BitReader::Position sym_start = reader.tell();
        const int sym = litlen_.decode(reader);
        if (sym == -1) {
          reader.seek(sym_start);
          need_more = true;
          return true;
        }
        if (sym < 0) {
          fail("deflate: bad literal/length code");
          return false;
        }
        if (sym < 256) {
          if (!emit_byte(static_cast<std::uint8_t>(sym), out)) return false;
          continue;
        }
        if (sym == static_cast<int>(kEndOfBlock)) {
          state_ = final_block_ ? State::kAdler : State::kBlockHeader;
          if (state_ == State::kAdler && format_ == Format::kRaw) {
            state_ = State::kDone;
          }
          return true;
        }
        const unsigned lcode = static_cast<unsigned>(sym) - 257;
        if (lcode >= kLengthCodes.size()) {
          fail("deflate: invalid length code");
          return false;
        }
        if (!reader.can_read(kLengthCodes[lcode].extra_bits)) {
          reader.seek(sym_start);
          need_more = true;
          return true;
        }
        const unsigned length =
            kLengthCodes[lcode].base +
            reader.read_bits(kLengthCodes[lcode].extra_bits);
        const int dsym = dist_.decode(reader);
        if (dsym == -1) {
          reader.seek(sym_start);
          need_more = true;
          return true;
        }
        if (dsym < 0 || dsym >= static_cast<int>(kDistCodes.size())) {
          fail("deflate: bad distance code");
          return false;
        }
        if (!reader.can_read(kDistCodes[dsym].extra_bits)) {
          reader.seek(sym_start);
          need_more = true;
          return true;
        }
        const unsigned dist =
            kDistCodes[dsym].base +
            reader.read_bits(kDistCodes[dsym].extra_bits);
        if (!copy_match(length, dist, out)) return false;
      }
    }

    case State::kAdler: {
      BitReader probe = reader;
      probe.align_to_byte();
      if (!probe.can_read(32)) return rollback();
      reader.align_to_byte();
      std::uint32_t stored = 0;
      for (int i = 0; i < 4; ++i) {
        stored = (stored << 8) | reader.read_aligned_byte();
      }
      if (stored != adler_) {
        fail("zlib: Adler-32 mismatch");
        return false;
      }
      state_ = State::kDone;
      return true;
    }

    case State::kDone:
    case State::kError:
      return false;
  }
  return false;
}

InflateResult zlib_decompress(std::span<const std::uint8_t> input,
                              std::size_t max_out) {
  InflateResult result;
  Inflater inf(Inflater::Format::kZlib);
  inf.set_output_cap(max_out);
  const Inflater::Status s = inf.feed(input, result.data);
  result.ok = s == Inflater::Status::kDone;
  if (!result.ok) {
    result.error = s == Inflater::Status::kError ? inf.error()
                                                 : "truncated stream";
    result.data.clear();
  }
  return result;
}

}  // namespace hsim::deflate
