#include "eda/record_codec.h"

#include <utility>

namespace atena {

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

Status ReadValue(PayloadReader& reader, Value* value) {
  std::string tag;
  ATENA_RETURN_IF_ERROR(reader.Read(&tag, "value"));
  if (tag == "N") {
    *value = Value::Null();
  } else if (tag == "I") {
    int64_t v = 0;
    ATENA_RETURN_IF_ERROR(reader.Read(&v, "int value"));
    *value = Value(v);
  } else if (tag == "D") {
    double v = 0.0;
    ATENA_RETURN_IF_ERROR(reader.ReadF64(&v, "double value"));
    *value = Value(v);
  } else if (tag == "S") {
    std::string s;
    ATENA_RETURN_IF_ERROR(reader.ReadString(&s, "string value"));
    *value = Value(std::move(s));
  } else {
    return reader.Fail("unknown value tag '" + tag + "'");
  }
  return Status::OK();
}

Status ReadOp(PayloadReader& reader, EdaOperation* op) {
  std::string tag;
  ATENA_RETURN_IF_ERROR(reader.Read(&tag, "operation"));
  if (tag == "B") {
    *op = EdaOperation::Back();
  } else if (tag == "G") {
    int group_column = 0, agg = 0, agg_column = 0;
    ATENA_RETURN_IF_ERROR(reader.Read(&group_column, "group column"));
    ATENA_RETURN_IF_ERROR(reader.Read(&agg, "agg function"));
    ATENA_RETURN_IF_ERROR(reader.Read(&agg_column, "agg column"));
    if (agg < 0 || agg >= kNumAggFuncs) {
      return reader.Fail("agg function " + std::to_string(agg) +
                         " out of range");
    }
    *op = EdaOperation::Group(group_column, static_cast<AggFunc>(agg),
                              agg_column);
  } else if (tag == "F") {
    int column = 0, cmp = 0, term_bin = 0;
    ATENA_RETURN_IF_ERROR(reader.Read(&column, "filter column"));
    ATENA_RETURN_IF_ERROR(reader.Read(&cmp, "filter operator"));
    ATENA_RETURN_IF_ERROR(reader.Read(&term_bin, "filter term bin"));
    if (cmp < 0 || cmp >= kNumCompareOps) {
      return reader.Fail("filter operator " + std::to_string(cmp) +
                         " out of range");
    }
    Value term;
    ATENA_RETURN_IF_ERROR(ReadValue(reader, &term));
    *op = EdaOperation::Filter(column, static_cast<CompareOp>(cmp),
                               std::move(term), term_bin);
  } else {
    return reader.Fail("unknown operation tag '" + tag + "'");
  }
  return Status::OK();
}

}  // namespace atena
