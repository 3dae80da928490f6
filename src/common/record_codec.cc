#include "common/record_codec.h"

#include <algorithm>

namespace atena {

bool ParseCrc32(std::string_view hex, uint32_t* crc) {
  const auto lower_hex = [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  };
  return hex.size() == 8 && std::all_of(hex.begin(), hex.end(), lower_hex) &&
         std::from_chars(hex.data(), hex.data() + 8, *crc, 16).ec ==
             std::errc();
}

char* PutRng(char* p, char* end, const RngState& rng) {
  for (const uint64_t word : rng.words) {
    p = PutNum(p, end, word);
    *p++ = ' ';
  }
  *p++ = rng.has_spare_gaussian ? '1' : '0';
  *p++ = ' ';
  return PutF64(p, rng.spare_gaussian);
}

void EncodeString(std::string& out, const std::string& s) {
  Num(out, s.size());
  out += ' ';
  out += s;
}

void EncodeRng(std::string& out, const RngState& rng) {
  char buf[128];
  out.append(buf, PutRng(buf, buf + sizeof(buf), rng));
}

Status PayloadReader::ExpectKeyword(const char* keyword) {
  std::string token;
  in_ >> token;
  if (!in_ || token != keyword) {
    return Fail("expected section '" + std::string(keyword) + "', got '" +
                token + "'");
  }
  return Status::OK();
}

Status PayloadReader::ReadBool(bool* value, const char* what) {
  int flag = 0;
  ATENA_RETURN_IF_ERROR(Read(&flag, what));
  if (flag != 0 && flag != 1) return Fail(std::string("non-boolean ") + what);
  *value = flag == 1;
  return Status::OK();
}

Status PayloadReader::ReadCount(int64_t* count, const char* what) {
  ATENA_RETURN_IF_ERROR(Read(count, what));
  if (*count < 0 || static_cast<uint64_t>(*count) > limit_) {
    return Fail(std::string("implausible ") + what + " count " +
                std::to_string(*count));
  }
  return Status::OK();
}

Status PayloadReader::ReadF64(double* value, const char* what) {
  std::string token;
  in_ >> token;
  if (!in_ || token.size() != 16) {
    return Fail(std::string("truncated or malformed ") + what);
  }
  uint64_t bits = 0;
  const auto result =
      std::from_chars(token.data(), token.data() + token.size(), bits, 16);
  if (result.ec != std::errc() || result.ptr != token.data() + token.size()) {
    return Fail(std::string("truncated or malformed ") + what);
  }
  std::memcpy(value, &bits, sizeof(bits));
  return Status::OK();
}

Status PayloadReader::ReadString(std::string* out, const char* what) {
  int64_t len = 0;
  ATENA_RETURN_IF_ERROR(ReadCount(&len, what));
  in_.get();  // the single separator after the length
  std::string s(static_cast<size_t>(len), '\0');
  in_.read(s.data(), len);
  if (!in_) return Fail(std::string("truncated ") + what);
  *out = std::move(s);
  return Status::OK();
}

Status PayloadReader::ReadRng(RngState* rng) {
  for (auto& word : rng->words) {
    ATENA_RETURN_IF_ERROR(Read(&word, "rng word"));
  }
  ATENA_RETURN_IF_ERROR(ReadBool(&rng->has_spare_gaussian, "rng spare flag"));
  return ReadF64(&rng->spare_gaussian, "rng spare value");
}

}  // namespace atena
