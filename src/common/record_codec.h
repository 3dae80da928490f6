#ifndef ATENA_COMMON_RECORD_CODEC_H_
#define ATENA_COMMON_RECORD_CODEC_H_

#include <charconv>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"

namespace atena {

/// The one text codec of every number this project persists: the serving
/// journal's records (serve/journal.h), the training checkpoint's payload
/// (rl/checkpoint.h) and the network weight file (nn/serialization.h) all
/// write and read through it, and the journal's and the checksummed
/// files' frames spell their checksums with it. Domain shapes layer on
/// top: operations and filter terms in eda/record_codec.h, matrices and
/// parameter lists in nn/serialization.h.
///
/// A record is a whitespace-delimited stream of keyword-introduced
/// sections; strings are length-prefixed so arbitrary dataset tokens and
/// parameter names survive. Every double is written as its 16-hex-digit
/// IEEE-754 bit pattern: exact for every value (NaN, the infinities, -0.0
/// and subnormals included) and several times cheaper than
/// shortest-round-trip decimal on both the encode and the parse side.
/// Encoding runs on the serving hot path (one tick record per Tick), so
/// numbers go through std::to_chars — no ostream formatting.
///
/// Every number is written by PutNum or PutF64 into a caller's buffer; Num
/// and F64 append through them to a growing string. A fixed-width record
/// part (a journal tick entry up to its operation, a stream state) is
/// assembled in one stack buffer and lands in the payload as a single
/// append. The buffers are sized for the widest value, so to_chars never
/// runs out of room; the check keeps a failed conversion from leaving `p`
/// at the buffer's end for the next `*p++`.

template <typename T>
char* PutNum(char* p, char* end, T value) {
  const std::to_chars_result result = std::to_chars(p, end, value);
  ATENA_CHECK(result.ec == std::errc()) << "record buffer too small";
  return result.ptr;
}

/// The low `digits` hex digits of `bits`, lowercase, most significant
/// first. A frame checksum (common/file_io.h, serve/journal.h) is
/// PutHex(p, crc, 8).
inline char* PutHex(char* p, uint64_t bits, int digits) {
  for (int i = digits - 1; i >= 0; --i) {
    p[i] = "0123456789abcdef"[bits & 0xF];
    bits >>= 4;
  }
  return p + digits;
}

inline char* PutF64(char* p, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return PutHex(p, bits, 16);
}

/// Parses a frame checksum strictly — exactly 8 lowercase hex digits — so
/// any byte flip inside it is itself detected.
bool ParseCrc32(std::string_view hex, uint32_t* crc);

/// A stream's full state: "<w0> <w1> <w2> <w3> <has_spare> <spare>".
char* PutRng(char* p, char* end, const RngState& rng);

template <typename T>
void Num(std::string& out, T value) {
  char buf[24];
  out.append(buf, PutNum(buf, buf + sizeof(buf), value));
}

inline void F64(std::string& out, double value) {
  char buf[16];
  out.append(buf, PutF64(buf, value));
}

/// "<keyword> <integer>\n": a one-number section.
template <typename T>
void Field(std::string& out, const char* keyword, T value) {
  out += keyword;
  out += ' ';
  Num(out, value);
  out += '\n';
}

/// "<bytes> <s>".
void EncodeString(std::string& out, const std::string& s);
void EncodeRng(std::string& out, const RngState& rng);

/// Checked reader over one record payload. Every read is checked; any
/// surprise aborts the parse with an InvalidArgument Status whose text
/// starts with the reader's context (a file's quoted path, or "journal
/// record"). Counts are bounded by the payload size, so a corrupt count can
/// never drive a huge allocation.
class PayloadReader {
 public:
  PayloadReader(const std::string& payload, std::string context)
      : in_(payload), context_(std::move(context)), limit_(payload.size()) {}

  Status Fail(const std::string& what) const {
    return Status::InvalidArgument(context_ + ": " + what);
  }

  Status ExpectKeyword(const char* keyword);

  /// One whitespace-delimited token: an integer, or a caller's own tag.
  template <typename T>
  Status Read(T* value, const char* what) {
    in_ >> *value;
    if (!in_) return Fail(std::string("truncated or malformed ") + what);
    return Status::OK();
  }

  /// The section Field writes.
  template <typename T>
  Status ReadField(const char* keyword, T* value) {
    ATENA_RETURN_IF_ERROR(ExpectKeyword(keyword));
    return Read(value, keyword);
  }

  /// A 0/1 flag.
  Status ReadBool(bool* value, const char* what);
  /// A non-negative count no larger than the payload.
  Status ReadCount(int64_t* count, const char* what);
  /// A double in the 16-hex-digit form F64 writes.
  Status ReadF64(double* value, const char* what);
  Status ReadString(std::string* out, const char* what);
  Status ReadRng(RngState* rng);

 private:
  std::istringstream in_;
  std::string context_;
  size_t limit_;
};

}  // namespace atena

#endif  // ATENA_COMMON_RECORD_CODEC_H_
