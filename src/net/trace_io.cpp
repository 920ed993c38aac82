#include "net/trace_io.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

namespace hsim::net {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// time(8) src(4) dst(4) sport(2) dport(2) flags(1) pad(1) seq(4) ack(4) len(4)
constexpr std::size_t kBinaryRecordBytes = 34;
/// v2 appends hop_router(i4) hop_queue_depth(4).
constexpr std::size_t kBinaryRecordBytesV2 = 42;
static_assert(kTraceBinaryMagic.size() == kTraceBinaryMagicV2.size());

bool starts_with(const std::vector<std::uint8_t>& data,
                 std::string_view magic) {
  return data.size() >= magic.size() &&
         std::memcmp(data.data(), magic.data(), magic.size()) == 0;
}

bool records_equal(const TraceRecord& a, const TraceRecord& b) {
  return a.time == b.time && a.src == b.src && a.dst == b.dst &&
         a.src_port == b.src_port && a.dst_port == b.dst_port &&
         a.flags == b.flags && a.seq == b.seq && a.ack == b.ack &&
         a.payload_bytes == b.payload_bytes && a.hop_router == b.hop_router &&
         a.hop_queue_depth == b.hop_queue_depth;
}

}  // namespace

bool trace_has_hops(const std::vector<TraceRecord>& records) {
  for (const TraceRecord& r : records) {
    if (r.has_hop()) return true;
  }
  return false;
}

std::string format_trace_record(const TraceRecord& r, bool with_hop) {
  // Nine decimals = exact nanoseconds: the text format must round-trip
  // losslessly (golden traces are parsed back for structural diffing).
  char line[192];
  int n = std::snprintf(line, sizeof line,
                        "%13.9f  %u:%u > %u:%u  %-4s seq=%u ack=%u len=%u",
                        sim::to_seconds(r.time), r.src, r.src_port, r.dst,
                        r.dst_port, flags_to_string(r.flags).c_str(), r.seq,
                        r.ack, r.payload_bytes);
  if (with_hop && n > 0 && static_cast<std::size_t>(n) < sizeof line) {
    if (r.has_hop()) {
      std::snprintf(line + n, sizeof line - static_cast<std::size_t>(n),
                    "  hop=%d:%u", r.hop_router, r.hop_queue_depth);
    } else {
      std::snprintf(line + n, sizeof line - static_cast<std::size_t>(n),
                    "  hop=-");
    }
  }
  return line;
}

std::string trace_to_text(const std::vector<TraceRecord>& records) {
  const bool hops = trace_has_hops(records);
  std::string out(hops ? kTraceTextHeaderV2 : kTraceTextHeader);
  out += '\n';
  for (const TraceRecord& r : records) {
    out += format_trace_record(r, hops);
    out += '\n';
  }
  return out;
}

std::vector<std::uint8_t> trace_to_binary(
    const std::vector<TraceRecord>& records) {
  const bool hops = trace_has_hops(records);
  const std::string_view magic = hops ? kTraceBinaryMagicV2 : kTraceBinaryMagic;
  const std::size_t record_bytes =
      hops ? kBinaryRecordBytesV2 : kBinaryRecordBytes;
  std::vector<std::uint8_t> out;
  out.reserve(magic.size() + 4 + records.size() * record_bytes);
  out.insert(out.end(), magic.begin(), magic.end());
  put_u32(out, static_cast<std::uint32_t>(records.size()));
  for (const TraceRecord& r : records) {
    put_u64(out, static_cast<std::uint64_t>(r.time));
    put_u32(out, r.src);
    put_u32(out, r.dst);
    put_u16(out, r.src_port);
    put_u16(out, r.dst_port);
    out.push_back(r.flags);
    out.push_back(0);  // pad / reserved
    put_u32(out, r.seq);
    put_u32(out, r.ack);
    put_u32(out, r.payload_bytes);
    if (hops) {
      put_u32(out, static_cast<std::uint32_t>(r.hop_router));
      put_u32(out, r.hop_queue_depth);
    }
  }
  return out;
}

bool trace_from_binary(const std::vector<std::uint8_t>& data,
                       std::vector<TraceRecord>* out, std::string* error) {
  out->clear();
  const bool v2 = starts_with(data, kTraceBinaryMagicV2);
  if (!v2 && !starts_with(data, kTraceBinaryMagic)) {
    if (error != nullptr) *error = "not an hsim binary trace (bad magic)";
    return false;
  }
  // Both magics are the same length; the record count follows either.
  const std::size_t magic_len = kTraceBinaryMagic.size();
  if (data.size() < magic_len + 4) {
    if (error != nullptr) *error = "truncated trace file";
    return false;
  }
  const std::size_t record_bytes =
      v2 ? kBinaryRecordBytesV2 : kBinaryRecordBytes;
  const std::uint32_t count = get_u32(data.data() + magic_len);
  const std::size_t need =
      magic_len + 4 + static_cast<std::size_t>(count) * record_bytes;
  if (data.size() < need) {
    if (error != nullptr) *error = "truncated trace file";
    return false;
  }
  out->reserve(count);
  const std::uint8_t* p = data.data() + magic_len + 4;
  for (std::uint32_t i = 0; i < count; ++i, p += record_bytes) {
    TraceRecord r;
    r.time = static_cast<sim::Time>(get_u64(p));
    r.src = get_u32(p + 8);
    r.dst = get_u32(p + 12);
    r.src_port = get_u16(p + 16);
    r.dst_port = get_u16(p + 18);
    r.flags = p[20];
    r.seq = get_u32(p + 22);
    r.ack = get_u32(p + 26);
    r.payload_bytes = get_u32(p + 30);
    if (v2) {
      r.hop_router = static_cast<std::int32_t>(get_u32(p + 34));
      r.hop_queue_depth = get_u32(p + 38);
    }
    out->push_back(r);
  }
  return true;
}

bool trace_from_text(const std::string& text, std::vector<TraceRecord>* out,
                     std::string* error) {
  out->clear();
  std::size_t pos = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind(kTraceTextHeader, 0) == 0 ||
          line.rfind(kTraceTextHeaderV2, 0) == 0) {
        saw_header = true;
      }
      continue;
    }
    double seconds = 0.0;
    unsigned src = 0, sport = 0, dst = 0, dport = 0;
    char flags[16] = {0};
    unsigned seq = 0, ack = 0, len = 0;
    // The flags token is letters only (e.g. "SA", "FA", ".") — %15s stops at
    // whitespace, matching the canonical single-space-separated rendering.
    const int n = std::sscanf(line.c_str(),
                              "%lf %u:%u > %u:%u %15s seq=%u ack=%u len=%u",
                              &seconds, &src, &sport, &dst, &dport, flags,
                              &seq, &ack, &len);
    if (n != 9) {
      if (error != nullptr) *error = "unparsable trace line: " + line;
      return false;
    }
    TraceRecord r;
    // llround, not from_seconds: the truncating cast can land one nanosecond
    // low after the double round-trip of the 9-decimal rendering.
    r.time = static_cast<sim::Time>(std::llround(seconds * 1e9));
    r.src = src;
    r.src_port = static_cast<Port>(sport);
    r.dst = dst;
    r.dst_port = static_cast<Port>(dport);
    r.seq = seq;
    r.ack = ack;
    r.payload_bytes = len;
    r.flags = 0;
    for (const char* f = flags; *f != 0; ++f) {
      switch (*f) {
        case 'S': r.flags |= flag::kSyn; break;
        case 'F': r.flags |= flag::kFin; break;
        case 'R': r.flags |= flag::kRst; break;
        case 'P': r.flags |= flag::kPsh; break;
        case 'A': r.flags |= flag::kAck; break;
        default: break;
      }
    }
    // Optional v2 hop column: "hop=-" (host edge) or "hop=<router>:<depth>".
    if (const std::size_t hop_at = line.find(" hop=");
        hop_at != std::string::npos) {
      int router = -1;
      unsigned depth = 0;
      if (std::sscanf(line.c_str() + hop_at, " hop=%d:%u", &router, &depth) ==
          2) {
        r.hop_router = router;
        r.hop_queue_depth = depth;
      }
    }
    out->push_back(r);
  }
  if (!saw_header) {
    if (error != nullptr) *error = "missing hsim-trace header line";
    return false;
  }
  return true;
}

TraceDiff diff_traces(const std::vector<TraceRecord>& a,
                      const std::vector<TraceRecord>& b,
                      std::size_t max_report_lines) {
  TraceDiff d;
  d.records_a = a.size();
  d.records_b = b.size();
  const bool hops = trace_has_hops(a) || trace_has_hops(b);
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t reported = 0;
  char head[96];
  for (std::size_t i = 0; i < common; ++i) {
    if (records_equal(a[i], b[i])) continue;
    if (d.identical) {
      d.identical = false;
      d.first_diff = i;
    }
    ++d.differing;
    if (reported < max_report_lines) {
      std::snprintf(head, sizeof head, "record %zu differs:\n", i);
      d.report += head;
      d.report += "  a: " + format_trace_record(a[i], hops) + "\n";
      d.report += "  b: " + format_trace_record(b[i], hops) + "\n";
      ++reported;
    }
  }
  if (a.size() != b.size()) {
    if (d.identical) {
      d.identical = false;
      d.first_diff = common;
    }
    const std::size_t extra = a.size() > b.size() ? a.size() - b.size()
                                                  : b.size() - a.size();
    d.differing += extra;
    std::snprintf(head, sizeof head,
                  "length differs: a has %zu records, b has %zu\n", a.size(),
                  b.size());
    d.report += head;
    const auto& longer = a.size() > b.size() ? a : b;
    const char tag = a.size() > b.size() ? 'a' : 'b';
    for (std::size_t i = common;
         i < longer.size() && reported < max_report_lines; ++i, ++reported) {
      d.report += "  ";
      d.report += tag;
      d.report += " only: " + format_trace_record(longer[i], hops) + "\n";
    }
  }
  if (!d.identical && d.differing > reported) {
    std::snprintf(head, sizeof head, "(%zu further differences omitted)\n",
                  d.differing - reported);
    d.report += head;
  }
  return d;
}

std::vector<HopSummary> summarize_by_hop(
    const std::vector<TraceRecord>& records, IpAddr client_addr) {
  // Group preserving ascending hop order (-1 host-edge first). A std::map
  // keyed by hop id gives the deterministic ordering summarize output needs.
  std::map<std::int32_t, std::vector<TraceRecord>> groups;
  std::map<std::int32_t, std::pair<std::uint64_t, std::uint32_t>> depths;
  for (const TraceRecord& r : records) {
    groups[r.hop_router].push_back(r);
    auto& [sum, max] = depths[r.hop_router];
    sum += r.hop_queue_depth;
    max = std::max(max, r.hop_queue_depth);
  }
  std::vector<HopSummary> out;
  out.reserve(groups.size());
  for (const auto& [hop, recs] : groups) {
    HopSummary h;
    h.hop_router = hop;
    h.summary = summarize_records(recs, client_addr);
    const auto& [sum, max] = depths[hop];
    h.mean_queue_depth =
        recs.empty() ? 0.0
                     : static_cast<double>(sum) / static_cast<double>(recs.size());
    h.max_queue_depth = max;
    out.push_back(std::move(h));
  }
  return out;
}

bool write_file(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(data.data(), 1, data.size(), f);
  const bool ok = std::fclose(f) == 0 && n == data.size();
  return ok;
}

bool write_file(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(data.data(), 1, data.size(), f);
  const bool ok = std::fclose(f) == 0 && n == data.size();
  return ok;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  std::uint8_t buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool load_trace_file(const std::string& path, std::vector<TraceRecord>* out,
                     std::string* error) {
  std::vector<std::uint8_t> data;
  if (!read_file(path, &data)) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  if (starts_with(data, kTraceBinaryMagic) ||
      starts_with(data, kTraceBinaryMagicV2)) {
    return trace_from_binary(data, out, error);
  }
  return trace_from_text(std::string(data.begin(), data.end()), out, error);
}

}  // namespace hsim::net
