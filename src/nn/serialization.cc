#include "nn/serialization.h"

#include <iomanip>
#include <limits>
#include <sstream>

#include "common/file_io.h"

namespace atena {

namespace {
constexpr char kMagicPrefix[] = "ATENA-NN";
constexpr char kVersion[] = "v2";
}  // namespace

std::string SerializeParameters(const std::vector<Parameter*>& params) {
  std::ostringstream out;
  out << kMagicPrefix << " " << kVersion << "\n" << params.size() << "\n";
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const Parameter* p : params) {
    out << (p->name.empty() ? "_" : p->name) << " " << p->value.rows() << " "
        << p->value.cols() << "\n";
    const auto& data = p->value.data();
    for (size_t i = 0; i < data.size(); ++i) {
      out << data[i] << (i + 1 == data.size() ? "" : " ");
    }
    out << "\n";
  }
  return out.str();
}

Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path) {
  return AtomicWriteFile(path, SerializeParameters(params));
}

Status ParseParametersInto(const std::vector<Parameter*>& params,
                           std::istream& in, const std::string& source,
                           std::vector<Matrix>* staged) {
  std::string prefix, version;
  in >> prefix >> version;
  if (!in || prefix != kMagicPrefix) {
    return Status::InvalidArgument("'" + source +
                                   "' is not an ATENA-NN block");
  }
  if (version != kVersion) {
    return Status::InvalidArgument(
        "'" + source + "' is ATENA-NN version '" + version +
        "', which is not supported; only " + kVersion + " can be read");
  }
  size_t count = 0;
  in >> count;
  if (!in) return Status::InvalidArgument("'" + source + "' truncated");
  if (count != params.size()) {
    return Status::FailedPrecondition(
        "parameter count mismatch: file has " + std::to_string(count) +
        ", network has " + std::to_string(params.size()));
  }
  // Stage into a buffer first so a truncated block cannot leave the network
  // half-loaded.
  std::vector<Matrix> out;
  out.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    std::string name;
    in >> name;
    if (!in) return Status::InvalidArgument("'" + source + "' truncated");
    if (name != "_" && !params[k]->name.empty() && name != params[k]->name) {
      return Status::FailedPrecondition(
          "parameter name mismatch at index " + std::to_string(k) +
          ": file '" + name + "', network '" + params[k]->name + "'");
    }
    int rows = 0, cols = 0;
    in >> rows >> cols;
    if (!in || rows != params[k]->value.rows() ||
        cols != params[k]->value.cols()) {
      return Status::FailedPrecondition(
          "shape mismatch at parameter " + std::to_string(k) + ": file " +
          std::to_string(rows) + "x" + std::to_string(cols) + ", network " +
          params[k]->value.ShapeString());
    }
    Matrix m(rows, cols);
    for (double& v : m.data()) {
      in >> v;
      if (!in) {
        return Status::InvalidArgument("'" + source + "' truncated");
      }
    }
    out.push_back(std::move(m));
  }
  *staged = std::move(out);
  return Status::OK();
}

Status LoadParameters(const std::vector<Parameter*>& params,
                      const std::string& path) {
  std::string text;
  ATENA_RETURN_IF_ERROR(ReadFileToString(path, &text));
  std::istringstream in(text);
  std::vector<Matrix> staged;
  ATENA_RETURN_IF_ERROR(ParseParametersInto(params, in, path, &staged));
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
