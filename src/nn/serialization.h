#ifndef ATENA_NN_SERIALIZATION_H_
#define ATENA_NN_SERIALIZATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/record_codec.h"
#include "common/status.h"
#include "nn/matrix.h"
#include "nn/parameter.h"

namespace atena {

/// The parameter codec: network weights written and read through the
/// record codec (common/record_codec.h), so every weight is stored as its
/// exact bit pattern. The bare weight file and the training checkpoint
/// (rl/checkpoint.h) carry the same section:
///
///   params <param-count>
///   <name-bytes> <name> <rows> <cols>
///   <v00> <v01> ...        (16-hex-digit bit patterns)
///   ...
///
/// Gradients are not saved. Unnamed parameters serialize their name as
/// "_". Enables checkpointing and transferring a trained policy to another
/// dataset with the same schema (the paper's future-work item of
/// generalizing learning across datasets).

/// "<rows> <cols>\n<v>...\n".
void EncodeMatrix(std::string& out, const Matrix& m);

/// Reads a matrix written by EncodeMatrix whose shape must equal
/// `expected`'s. A different shape is FailedPrecondition naming `what`,
/// checked before anything is allocated.
Status ReadMatrixLike(PayloadReader& reader, const Matrix& expected,
                      const std::string& what, Matrix* out);

/// Appends the parameter section for `params`.
void EncodeParameters(std::string& out, const std::vector<Parameter*>& params);

/// Reads a parameter section, validating its count, names and shapes
/// against `params` (any mismatch is FailedPrecondition, checked before
/// anything is allocated; names must match where both sides have one), and
/// stages the matrices into `*staged` in parameter order. The network
/// itself is never touched, so a failed read can never leave it
/// half-loaded.
Status ReadParameters(PayloadReader& reader,
                      const std::vector<Parameter*>& params,
                      std::vector<Matrix>* staged);

/// The weight file's payload: the parameter section SaveParameters frames.
std::string SerializeParameters(const std::vector<Parameter*>& params);

/// Writes the `ATENA-NN v3` weight file: the parameter section inside a
/// CRC32-checksummed frame (WriteChecksummedFile, common/file_io.h), which
/// lands through a temp file and a rename, so an interrupted save can never
/// corrupt an existing file.
Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path);

/// Loads a file saved by SaveParameters into `params`. A truncated or
/// corrupted file is refused by its checksum; any other version (such as
/// the retired decimal v1 and v2 files) is InvalidArgument naming that
/// version. `params` is left unmodified on any error.
Status LoadParameters(const std::vector<Parameter*>& params,
                      const std::string& path);
/// LoadParameters over the bytes `raw` already read from `path`.
Status LoadParametersFromBytes(std::string_view raw, const std::string& path,
                               const std::vector<Parameter*>& params);

/// Store-level conveniences: checkpoint every parameter of a network's
/// ParameterStore in creation order.
Status SaveParameters(const ParameterStore& store, const std::string& path);
Status LoadParameters(ParameterStore* store, const std::string& path);

}  // namespace atena

#endif  // ATENA_NN_SERIALIZATION_H_
