#ifndef ATENA_NN_SERIALIZATION_H_
#define ATENA_NN_SERIALIZATION_H_

#include <istream>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/parameter.h"

namespace atena {

/// Serializes a parameter list to a portable text format:
///
///   ATENA-NN v2
///   <param-count>
///   <name> <rows> <cols>
///   <v00> <v01> ...
///   ...
///
/// Values round-trip exactly (printed with max_digits10). Gradients are
/// not saved. Unnamed parameters serialize their name as "_". Enables
/// checkpointing and transferring a trained policy to another dataset with
/// the same schema (the paper's future-work item of generalizing learning
/// across datasets).
/// Writes via AtomicWriteFile (common/file_io.h): the bytes land in a temp
/// file and are renamed over `path`, so an interrupted save can never
/// corrupt an existing checkpoint.
Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path);

/// Renders the ATENA-NN v2 text block for `params` — the exact bytes
/// SaveParameters writes. Exposed so container formats (the ATENA-CKPT
/// training checkpoint, rl/checkpoint.h) can embed a parameter block.
std::string SerializeParameters(const std::vector<Parameter*>& params);

/// Parses an ATENA-NN v2 block from `in` (a file or a position inside a
/// container), validating count, names and shapes against `params`, and
/// stages the matrices into `*staged` in parameter order — the network
/// itself is never touched, so a failed parse can never leave it
/// half-loaded. `source` names the origin for error messages. On success
/// the stream is positioned just past the block's last value.
Status ParseParametersInto(const std::vector<Parameter*>& params,
                           std::istream& in, const std::string& source,
                           std::vector<Matrix>* staged);

/// Loads a checkpoint saved by SaveParameters into `params`. Only the
/// "ATENA-NN v2" format is read; any other version (such as the retired
/// nameless v1) is InvalidArgument naming that version. The count and every
/// shape must match exactly, and names must match the in-memory parameter
/// names where both sides have one (mismatch = FailedPrecondition and the
/// parameters are left unmodified).
Status LoadParameters(const std::vector<Parameter*>& params,
                      const std::string& path);

/// Store-level conveniences: checkpoint every parameter of a network's
/// ParameterStore in creation order.
Status SaveParameters(const ParameterStore& store, const std::string& path);
Status LoadParameters(ParameterStore* store, const std::string& path);

}  // namespace atena

#endif  // ATENA_NN_SERIALIZATION_H_
