#include "nn/serialization.h"

#include "common/file_io.h"

namespace atena {

namespace {
constexpr char kMagic[] = "ATENA-NN v3";
}  // namespace

void EncodeMatrix(std::string& out, const Matrix& m) {
  Num(out, m.rows());
  out += ' ';
  Num(out, m.cols());
  out += '\n';
  const auto& data = m.data();
  for (size_t i = 0; i < data.size(); ++i) {
    if (i > 0) out += ' ';
    F64(out, data[i]);
  }
  out += '\n';
}

Status ReadMatrixLike(PayloadReader& reader, const Matrix& expected,
                      const std::string& what, Matrix* out) {
  int rows = 0, cols = 0;
  ATENA_RETURN_IF_ERROR(reader.Read(&rows, "matrix rows"));
  ATENA_RETURN_IF_ERROR(reader.Read(&cols, "matrix cols"));
  if (rows != expected.rows() || cols != expected.cols()) {
    return Status::FailedPrecondition(
        what + " shape mismatch: file " + std::to_string(rows) + "x" +
        std::to_string(cols) + ", network " + expected.ShapeString());
  }
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    ATENA_RETURN_IF_ERROR(reader.ReadF64(&v, "matrix value"));
  }
  *out = std::move(m);
  return Status::OK();
}

void EncodeParameters(std::string& out,
                      const std::vector<Parameter*>& params) {
  Field(out, "params", params.size());
  for (const Parameter* p : params) {
    EncodeString(out, p->name.empty() ? "_" : p->name);
    out += ' ';
    EncodeMatrix(out, p->value);
  }
}

Status ReadParameters(PayloadReader& reader,
                      const std::vector<Parameter*>& params,
                      std::vector<Matrix>* staged) {
  int64_t count = 0;
  ATENA_RETURN_IF_ERROR(reader.ReadField("params", &count));
  if (count != static_cast<int64_t>(params.size())) {
    return Status::FailedPrecondition(
        "parameter count mismatch: file has " + std::to_string(count) +
        ", network has " + std::to_string(params.size()));
  }
  std::vector<Matrix> out(params.size());
  for (size_t k = 0; k < params.size(); ++k) {
    std::string name;
    ATENA_RETURN_IF_ERROR(reader.ReadString(&name, "parameter name"));
    if (name != "_" && !params[k]->name.empty() && name != params[k]->name) {
      return Status::FailedPrecondition(
          "parameter name mismatch at index " + std::to_string(k) +
          ": file '" + name + "', network '" + params[k]->name + "'");
    }
    ATENA_RETURN_IF_ERROR(ReadMatrixLike(reader, params[k]->value,
                                         "parameter " + std::to_string(k),
                                         &out[k]));
  }
  *staged = std::move(out);
  return Status::OK();
}

std::string SerializeParameters(const std::vector<Parameter*>& params) {
  std::string out;
  EncodeParameters(out, params);
  return out;
}

Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path) {
  return WriteChecksummedFile(path, kMagic, SerializeParameters(params));
}

Status LoadParameters(const std::vector<Parameter*>& params,
                      const std::string& path) {
  std::string raw;
  ATENA_RETURN_IF_ERROR(ReadFileToString(path, &raw));
  return LoadParametersFromBytes(raw, path, params);
}

Status LoadParametersFromBytes(std::string_view raw, const std::string& path,
                               const std::vector<Parameter*>& params) {
  std::string payload;
  ATENA_RETURN_IF_ERROR(ParseChecksummedFile(raw, path, kMagic, &payload));
  PayloadReader reader(payload, "'" + path + "'");
  std::vector<Matrix> staged;
  ATENA_RETURN_IF_ERROR(ReadParameters(reader, params, &staged));
  for (size_t k = 0; k < staged.size(); ++k) {
    params[k]->value = std::move(staged[k]);
  }
  return Status::OK();
}

Status SaveParameters(const ParameterStore& store, const std::string& path) {
  return SaveParameters(store.All(), path);
}

Status LoadParameters(ParameterStore* store, const std::string& path) {
  return LoadParameters(store->All(), path);
}

}  // namespace atena
