// Binary framing shared by every artifact format: model files (format v6),
// training checkpoints, dataset shards and the golden test fixtures.
//
// ByteWriter appends PODs and raw bytes to an in-memory payload. ByteReader
// walks a buffer with an explicit cursor: every read is length-checked
// against the remaining bytes and failures surface as CorruptArtifactError
// carrying the caller's context string, so a truncated or bit-flipped file
// can never drive reads past the end or silently return bad data.
//
// Model files, checkpoints and shards end in the same 8-byte trailer, the
// FNV-1a-64 of the payload before it: ByteWriter::append_checksum writes
// it and ByteReader::strip_checksum verifies it. Nothing else appends or
// checks that trailer.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/errors.h"

namespace paragraph::util {

inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

class ByteWriter {
 public:
  explicit ByteWriter(std::size_t capacity = 0) { buf_.reserve(capacity); }

  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  void bytes(std::string_view b) { buf_.append(b); }

  // Appends the FNV-1a-64 of everything written so far as the trailer and
  // returns it.
  std::uint64_t append_checksum() {
    const std::uint64_t checksum = fnv1a64(buf_);
    pod(checksum);
    return checksum;
  }

  std::string_view view() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  ByteReader(std::string_view buf, std::string context)
      : buf_(buf), context_(std::move(context)) {}

  std::size_t remaining() const { return buf_.size() - pos_; }

  template <typename T>
  T pod(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T), what);
    T v{};
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  // Raw view of the next n bytes (advances the cursor).
  std::string_view bytes(std::size_t n, const char* what) {
    need(n, what);
    const std::string_view v = buf_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  // Splits the buffer into payload and checksum trailer: the trailer must
  // equal the FNV-1a-64 of everything before it, and the reader then ends
  // where the payload does. Returns the checksum.
  std::uint64_t strip_checksum() {
    if (buf_.size() < sizeof(std::uint64_t)) corrupt("truncated before checksum");
    const std::string_view payload = buf_.substr(0, buf_.size() - sizeof(std::uint64_t));
    std::uint64_t stored = 0;
    std::memcpy(&stored, buf_.data() + payload.size(), sizeof stored);
    if (stored != fnv1a64(payload)) corrupt("payload checksum mismatch");
    if (pos_ > payload.size()) corrupt("truncated before checksum");
    buf_ = payload;
    return stored;
  }

  [[noreturn]] void corrupt(const std::string& why) const {
    throw CorruptArtifactError(context_ + ": " + why);
  }

  // Asserts `v` lies in [lo, hi]; part of the sane-maxima bounds that keep
  // corrupt dims/counts from driving huge allocations.
  std::uint64_t bounded(std::uint64_t v, std::uint64_t lo, std::uint64_t hi, const char* what) {
    if (v < lo || v > hi)
      corrupt(std::string(what) + " out of range (" + std::to_string(v) + " not in [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "])");
    return v;
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (remaining() < n)
      corrupt(std::string("truncated reading ") + what + " (need " + std::to_string(n) +
              " bytes, " + std::to_string(remaining()) + " left)");
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace paragraph::util
