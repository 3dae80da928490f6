#include "eda/record_codec.h"

namespace atena {

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

void EncodeValue(std::string& out, const Value& value) {
  if (value.is_null()) {
    out += 'N';
  } else if (value.is_int()) {
    out += "I ";
    Num(out, value.as_int());
  } else if (value.is_double()) {
    out += "D ";
    F64(out, value.as_double());
  } else {
    out += "S ";
    EncodeString(out, value.as_string());
  }
}

void EncodeOp(std::string& out, const EdaOperation& op) {
  switch (op.type) {
    case OpType::kBack:
      out += 'B';
      break;
    case OpType::kGroup:
      out += "G ";
      Num(out, op.group.group_column);
      out += ' ';
      Num(out, static_cast<int>(op.group.agg));
      out += ' ';
      Num(out, op.group.agg_column);
      break;
    case OpType::kFilter:
      out += "F ";
      Num(out, op.filter.column);
      out += ' ';
      Num(out, static_cast<int>(op.filter.op));
      out += ' ';
      Num(out, op.filter.term_bin);
      out += ' ';
      EncodeValue(out, op.filter.term);
      break;
  }
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

Status PayloadReader::ReadValue(Value* value) {
  std::string tag;
  in_ >> tag;
  if (!in_) return Fail("truncated value");
  if (tag == "N") {
    *value = Value::Null();
  } else if (tag == "I") {
    int64_t v = 0;
    ATENA_RETURN_IF_ERROR(Read(&v, "int value"));
    *value = Value(v);
  } else if (tag == "D") {
    double v = 0.0;
    ATENA_RETURN_IF_ERROR(ReadF64(&v, "double value"));
    *value = Value(v);
  } else if (tag == "S") {
    std::string s;
    ATENA_RETURN_IF_ERROR(ReadString(&s, "string value"));
    *value = Value(std::move(s));
  } else {
    return Fail("unknown value tag '" + tag + "'");
  }
  return Status::OK();
}

Status PayloadReader::ReadOp(EdaOperation* op) {
  std::string tag;
  in_ >> tag;
  if (!in_) return Fail("truncated operation");
  if (tag == "B") {
    *op = EdaOperation::Back();
  } else if (tag == "G") {
    int group_column = 0, agg = 0, agg_column = 0;
    ATENA_RETURN_IF_ERROR(Read(&group_column, "group column"));
    ATENA_RETURN_IF_ERROR(Read(&agg, "agg function"));
    ATENA_RETURN_IF_ERROR(Read(&agg_column, "agg column"));
    if (agg < 0 || agg >= kNumAggFuncs) {
      return Fail("agg function " + std::to_string(agg) + " out of range");
    }
    *op = EdaOperation::Group(group_column, static_cast<AggFunc>(agg),
                              agg_column);
  } else if (tag == "F") {
    int column = 0, cmp = 0, term_bin = 0;
    ATENA_RETURN_IF_ERROR(Read(&column, "filter column"));
    ATENA_RETURN_IF_ERROR(Read(&cmp, "filter operator"));
    ATENA_RETURN_IF_ERROR(Read(&term_bin, "filter term bin"));
    if (cmp < 0 || cmp >= kNumCompareOps) {
      return Fail("filter operator " + std::to_string(cmp) + " out of range");
    }
    Value term;
    ATENA_RETURN_IF_ERROR(ReadValue(&term));
    *op = EdaOperation::Filter(column, static_cast<CompareOp>(cmp),
                               std::move(term), term_bin);
  } else {
    return Fail("unknown operation tag '" + tag + "'");
  }
  return Status::OK();
}

}  // namespace atena
