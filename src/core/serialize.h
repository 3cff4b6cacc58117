// Binary persistence for trained predictors.
//
// A trained GnnPredictor is stored as its PredictorConfig (so the exact
// architecture can be reconstructed), the fitted TargetScaler state, and
// every parameter matrix in deterministic construction order. Files carry
// a magic header and a format version; loads validate shapes against the
// freshly constructed model.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/predictor.h"

namespace paragraph::core {

// Atomically writes the model file (temp + fsync + rename); a crash or
// full disk mid-save leaves any previous file intact. Throws
// util::IoError on I/O failure.
void save_predictor(const GnnPredictor& predictor, const std::string& path);

// Reconstructs the architecture from the stored config and restores the
// trained weights and scaler. Every read is length-checked, dims/counts
// are bounded against sane maxima, and the trailing payload checksum is
// verified; corrupt files raise util::CorruptArtifactError, unreadable
// ones util::IoError. Only format 5 loads; files of any other version
// raise util::CorruptArtifactError naming it.
GnnPredictor load_predictor(const std::string& path);

// In-memory forms of the same format; the checkpoint writer embeds the
// model blob alongside its optimiser/RNG state.
std::string predictor_to_bytes(const GnnPredictor& predictor);
GnnPredictor predictor_from_bytes(std::string_view bytes, const std::string& context);

// Slurps an artifact file with a size sanity bound. Throws util::IoError
// (unreadable) or util::CorruptArtifactError (implausibly large).
std::string read_artifact_file(const std::string& path, const char* what,
                               std::uint64_t max_bytes = std::uint64_t{1} << 30);

}  // namespace paragraph::core
