#include "rl/checkpoint.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/file_io.h"
#include "eda/record_codec.h"
#include "nn/serialization.h"

namespace atena {

namespace {

constexpr char kCkptMagic[] = "ATENA-CKPT v3";

std::string RenameError(const std::string& from, const std::string& to) {
  return "rename '" + from + "' -> '" + to + "' failed: " +
         std::strerror(errno) + " (errno " + std::to_string(errno) + ")";
}

// The payload is written and read through the record codec
// (common/record_codec.h), so every double travels as its exact bit
// pattern; the weights and Adam moments use the parameter codec
// (nn/serialization.h) and the operations the session-state codec
// (eda/record_codec.h). Only the checkpoint's own operation lists live
// here. Nothing is committed to the caller's network or optimizer until
// the whole payload has been validated.

void EncodeOpList(std::string& out, const char* keyword,
                  const std::vector<EdaOperation>& ops) {
  Field(out, keyword, ops.size());
  for (const EdaOperation& op : ops) {
    EncodeOp(out, op);
    out += '\n';
  }
}

Status ReadOpList(PayloadReader& reader, const char* keyword,
                  std::vector<EdaOperation>* ops) {
  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword(keyword));
  int64_t count = 0;
  ATENA_RETURN_IF_ERROR(reader.ReadCount(&count, keyword));
  ops->clear();
  for (int64_t i = 0; i < count; ++i) {
    EdaOperation op;
    ATENA_RETURN_IF_ERROR(ReadOp(reader, &op));
    ops->push_back(std::move(op));
  }
  return Status::OK();
}

// Verifies the CRC frame of checkpoint bytes read from `source` and decodes
// the payload.
Status DecodeCheckpointFile(std::string_view raw, const std::string& source,
                            const std::vector<Parameter*>& params,
                            TrainingCheckpoint* out) {
  std::string payload;
  ATENA_RETURN_IF_ERROR(
      ParseChecksummedFile(raw, source, kCkptMagic, &payload));
  return DecodeCheckpointPayload(payload, params, source, out);
}

// LoadTrainingCheckpoint once `path` has been read: `raw` holds its bytes
// when `read` is OK. Only a failed primary reads `<path>.prev`.
Status LoadCheckpointOrPrev(const std::string& path, const Status& read,
                            std::string_view raw,
                            const std::vector<Parameter*>& params,
                            TrainingCheckpoint* out, CheckpointLoadInfo* info) {
  TrainingCheckpoint staged;
  const Status primary =
      read.ok() ? DecodeCheckpointFile(raw, path, params, &staged) : read;
  if (primary.ok()) {
    if (info) *info = CheckpointLoadInfo{};
    *out = std::move(staged);
    return Status::OK();
  }
  const std::string prev = path + ".prev";
  std::string prev_raw;
  Status fallback = ReadFileToString(prev, &prev_raw);
  if (fallback.ok()) {
    fallback = DecodeCheckpointFile(prev_raw, prev, params, &staged);
  }
  if (fallback.ok()) {
    if (info) {
      info->recovered_from_prev = true;
      info->primary_error = primary.ToString();
    }
    *out = std::move(staged);
    return Status::OK();
  }
  return Status::IOError("no loadable checkpoint: '" + path + "' (" +
                         primary.ToString() + "); '" + prev + "' (" +
                         fallback.ToString() + ")");
}

}  // namespace

std::string EncodeCheckpointPayload(const std::vector<Parameter*>& params,
                                    const TrainingCheckpoint& ckpt) {
  std::string out;
  Field(out, "steps_done", ckpt.steps_done);
  Field(out, "updates_done", ckpt.updates_done);
  out += "trainer_rng ";
  EncodeRng(out, ckpt.trainer_rng);
  out += '\n';
  Field(out, "episodes", ckpt.episodes);
  out += "best_reward ";
  F64(out, ckpt.best_episode_reward);
  out += '\n';

  Field(out, "curve", ckpt.curve.size());
  for (const CurvePoint& point : ckpt.curve) {
    Num(out, point.step);
    out += ' ';
    F64(out, point.mean_episode_reward);
    out += '\n';
  }
  Field(out, "recent", ckpt.recent_episode_rewards.size());
  for (size_t i = 0; i < ckpt.recent_episode_rewards.size(); ++i) {
    if (i > 0) out += ' ';
    F64(out, ckpt.recent_episode_rewards[i]);
  }
  out += '\n';
  EncodeOpList(out, "best_ops", ckpt.best_episode_ops);

  Field(out, "actors", ckpt.actors.size());
  for (const ActorCheckpoint& actor : ckpt.actors) {
    out += "actor ";
    Num(out, actor.env_seed);
    out += ' ';
    EncodeRng(out, actor.env_rng);
    out += ' ';
    F64(out, actor.episode_reward);
    out += '\n';
    EncodeOpList(out, "ops", actor.episode_ops);
  }

  Field(out, "adam_step", ckpt.adam_step);
  Field(out, "adam_moments", ckpt.adam_m.size());
  for (size_t k = 0; k < ckpt.adam_m.size(); ++k) {
    EncodeMatrix(out, ckpt.adam_m[k]);
    EncodeMatrix(out, ckpt.adam_v[k]);
  }

  // The network weights: the parameter section of the weight file.
  EncodeParameters(out, params);

  // Guard recovery state travels only once an anomaly has occurred (see
  // TrainingCheckpoint::guard).
  if (!ckpt.guard.IsDefault()) {
    out += "guard ";
    Num(out, ckpt.guard.retries_used);
    out += ' ';
    F64(out, ckpt.guard.lr_scale);
    out += ' ';
    Num(out, ckpt.guard.last_good_update);
    out += ' ';
    Num(out, ckpt.guard.events_logged);
    out += '\n';
  }
  out += "end\n";
  return out;
}

Status DecodeCheckpointPayload(const std::string& payload,
                               const std::vector<Parameter*>& params,
                               const std::string& source,
                               TrainingCheckpoint* out) {
  PayloadReader reader(payload, "'" + source + "'");
  TrainingCheckpoint ckpt;

  ATENA_RETURN_IF_ERROR(reader.ReadField("steps_done", &ckpt.steps_done));
  ATENA_RETURN_IF_ERROR(reader.ReadField("updates_done", &ckpt.updates_done));
  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("trainer_rng"));
  ATENA_RETURN_IF_ERROR(reader.ReadRng(&ckpt.trainer_rng));
  ATENA_RETURN_IF_ERROR(reader.ReadField("episodes", &ckpt.episodes));
  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("best_reward"));
  ATENA_RETURN_IF_ERROR(
      reader.ReadF64(&ckpt.best_episode_reward, "best_reward"));

  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("curve"));
  int64_t curve_count = 0;
  ATENA_RETURN_IF_ERROR(reader.ReadCount(&curve_count, "curve"));
  for (int64_t i = 0; i < curve_count; ++i) {
    CurvePoint point;
    ATENA_RETURN_IF_ERROR(reader.Read(&point.step, "curve step"));
    ATENA_RETURN_IF_ERROR(
        reader.ReadF64(&point.mean_episode_reward, "curve reward"));
    ckpt.curve.push_back(point);
  }

  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("recent"));
  int64_t recent_count = 0;
  ATENA_RETURN_IF_ERROR(reader.ReadCount(&recent_count, "recent"));
  for (int64_t i = 0; i < recent_count; ++i) {
    double reward = 0.0;
    ATENA_RETURN_IF_ERROR(reader.ReadF64(&reward, "recent reward"));
    ckpt.recent_episode_rewards.push_back(reward);
  }

  ATENA_RETURN_IF_ERROR(
      ReadOpList(reader, "best_ops", &ckpt.best_episode_ops));

  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("actors"));
  int64_t actor_count = 0;
  ATENA_RETURN_IF_ERROR(reader.ReadCount(&actor_count, "actors"));
  for (int64_t i = 0; i < actor_count; ++i) {
    ActorCheckpoint actor;
    ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("actor"));
    ATENA_RETURN_IF_ERROR(reader.Read(&actor.env_seed, "actor env seed"));
    ATENA_RETURN_IF_ERROR(reader.ReadRng(&actor.env_rng));
    ATENA_RETURN_IF_ERROR(
        reader.ReadF64(&actor.episode_reward, "actor episode reward"));
    ATENA_RETURN_IF_ERROR(ReadOpList(reader, "ops", &actor.episode_ops));
    ckpt.actors.push_back(std::move(actor));
  }

  ATENA_RETURN_IF_ERROR(reader.ReadField("adam_step", &ckpt.adam_step));
  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("adam_moments"));
  int64_t moment_count = 0;
  ATENA_RETURN_IF_ERROR(reader.ReadCount(&moment_count, "adam_moments"));
  if (moment_count != 0 &&
      moment_count != static_cast<int64_t>(params.size())) {
    return reader.Fail("adam moment count " + std::to_string(moment_count) +
                       " does not match network parameter count " +
                       std::to_string(params.size()));
  }
  for (int64_t k = 0; k < moment_count; ++k) {
    Matrix m, v;
    const Matrix& expected = params[static_cast<size_t>(k)]->value;
    const std::string what = "adam moment " + std::to_string(k);
    ATENA_RETURN_IF_ERROR(ReadMatrixLike(reader, expected, what, &m));
    ATENA_RETURN_IF_ERROR(ReadMatrixLike(reader, expected, what, &v));
    ckpt.adam_m.push_back(std::move(m));
    ckpt.adam_v.push_back(std::move(v));
  }

  ATENA_RETURN_IF_ERROR(ReadParameters(reader, params, &ckpt.param_values));

  // The optional guard section sits between the weights and the end
  // marker; its absence means "no guard event ever happened".
  std::string section;
  ATENA_RETURN_IF_ERROR(reader.Read(&section, "section keyword"));
  if (section == "guard") {
    ATENA_RETURN_IF_ERROR(
        reader.Read(&ckpt.guard.retries_used, "guard retries"));
    ATENA_RETURN_IF_ERROR(
        reader.ReadF64(&ckpt.guard.lr_scale, "guard lr scale"));
    ATENA_RETURN_IF_ERROR(
        reader.Read(&ckpt.guard.last_good_update, "guard last good update"));
    ATENA_RETURN_IF_ERROR(
        reader.Read(&ckpt.guard.events_logged, "guard events"));
    if (ckpt.guard.retries_used < 0 || ckpt.guard.last_good_update < 0 ||
        ckpt.guard.events_logged < 0 || !(ckpt.guard.lr_scale > 0.0) ||
        !std::isfinite(ckpt.guard.lr_scale)) {
      return reader.Fail("implausible guard state");
    }
    ATENA_RETURN_IF_ERROR(reader.Read(&section, "section keyword"));
  }
  if (section != "end") {
    return reader.Fail("expected section 'end', got '" + section + "'");
  }

  *out = std::move(ckpt);
  return Status::OK();
}

Status SaveTrainingCheckpoint(const std::string& path,
                              const std::vector<Parameter*>& params,
                              const TrainingCheckpoint& ckpt) {
  const std::string payload = EncodeCheckpointPayload(params, ckpt);
  const std::string fresh = path + ".new";
  const std::string prev = path + ".prev";
  // The new snapshot becomes durable under a side name first; only then is
  // the current snapshot demoted to `.prev` and the new one promoted. A
  // crash at any point leaves at least one fully-written snapshot among
  // {path, .prev, .new}.
  ATENA_RETURN_IF_ERROR(WriteChecksummedFile(fresh, kCkptMagic, payload));
  if (FileExists(path)) {
    if (std::rename(path.c_str(), prev.c_str()) != 0) {
      return Status::IOError(RenameError(path, prev));
    }
  }
  if (std::rename(fresh.c_str(), path.c_str()) != 0) {
    return Status::IOError(RenameError(fresh, path));
  }
  return Status::OK();
}

Status LoadTrainingCheckpoint(const std::string& path,
                              const std::vector<Parameter*>& params,
                              TrainingCheckpoint* out,
                              CheckpointLoadInfo* info) {
  std::string raw;
  const Status read = ReadFileToString(path, &raw);
  return LoadCheckpointOrPrev(path, read, raw, params, out, info);
}

bool OpExecutableOn(const Table& table, const EdaOperation& op) {
  const int num_cols = table.num_columns();
  switch (op.type) {
    case OpType::kBack:
      return true;
    case OpType::kFilter:
      return op.filter.column >= 0 && op.filter.column < num_cols;
    case OpType::kGroup:
      return op.group.group_column >= 0 && op.group.group_column < num_cols &&
             op.group.agg_column >= -1 && op.group.agg_column < num_cols;
  }
  return false;
}

Status LoadPolicyParameters(const std::string& path,
                            const std::vector<Parameter*>& params) {
  // The file is read once; its magic line picks the decoder.
  std::string raw;
  const Status read = ReadFileToString(path, &raw);
  if (read.ok() && raw.starts_with("ATENA-NN")) {
    Status loaded = LoadParametersFromBytes(raw, path, params);
    if (loaded.code() == StatusCode::kFailedPrecondition) {
      // Architecture mismatch: the container was trained with a network
      // this policy was not constructed as. Keep the shape detail and say
      // what to fix.
      return Status::FailedPrecondition(
          "'" + path + "': " + loaded.message() +
          " — the policy must be constructed with the hidden sizes and "
          "dataset schema the container was trained with");
    }
    return loaded;
  }

  // Anything else is treated as an ATENA-CKPT container; a primary that
  // fails to load falls back to `<path>.prev`, and the decoder validates
  // the embedded parameter section against `params`.
  TrainingCheckpoint ckpt;
  Status loaded = LoadCheckpointOrPrev(path, read, raw, params, &ckpt,
                                       /*info=*/nullptr);
  if (!loaded.ok()) {
    if (!(read.ok() && raw.starts_with("ATENA-CKPT"))) {
      return Status::InvalidArgument(
          "'" + path + "' is neither an ATENA-NN parameter file nor an "
          "ATENA-CKPT training checkpoint: " +
          (read.ok() ? loaded.ToString() : read.ToString()));
    }
    return loaded;
  }
  // ReadParameters (inside the decoder) guarantees one staged matrix per
  // network parameter, already shape-checked.
  for (size_t k = 0; k < params.size(); ++k) {
    params[k]->value = std::move(ckpt.param_values[k]);
  }
  return Status::OK();
}

}  // namespace atena
