#ifndef ATENA_EDA_RECORD_CODEC_H_
#define ATENA_EDA_RECORD_CODEC_H_

#include <string>

#include "common/record_codec.h"
#include "common/status.h"
#include "dataframe/value.h"
#include "eda/operation.h"

namespace atena {

/// The session-state shapes of the record codec (common/record_codec.h):
/// resolved operations and their filter terms, as the serving journal and
/// the training checkpoint write and read them.

/// "N", "I <int>", "D <f64>" or "S <string>".
void EncodeValue(std::string& out, const Value& value);
/// "B", "G <group column> <agg> <agg column>" or
/// "F <column> <operator> <term bin> <value>".
void EncodeOp(std::string& out, const EdaOperation& op);

Status ReadValue(PayloadReader& reader, Value* value);
/// Validates the operator and aggregate enum ranges; column indices are
/// the caller's to check against its table.
Status ReadOp(PayloadReader& reader, EdaOperation* op);

}  // namespace atena

#endif  // ATENA_EDA_RECORD_CODEC_H_
