// Binary persistence for trained predictors (model format v6).
//
// A trained GnnPredictor is stored as its PredictorConfig (so the exact
// architecture can be reconstructed), the fitted TargetScaler state, every
// parameter matrix in deterministic construction order, the training-set
// feature normaliser (so a load never regenerates the training data) and
// the training-set feature sketches. Files carry a magic header and a
// format version and end in the checksum trailer of util/bytes.h; they
// are written and read through util/atomic_file.h. Loads validate the
// parameter count and shapes against the freshly constructed model.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/predictor.h"
#include "nn/matrix.h"
#include "util/bytes.h"

namespace paragraph::core {

// Atomically writes the model file (temp + fsync + rename); a crash or
// full disk mid-save leaves any previous file intact. Throws
// util::IoError on I/O failure.
void save_predictor(const GnnPredictor& predictor, const std::string& path);

// Reconstructs the architecture from the stored config and restores the
// trained weights, scaler and normaliser. Every read is length-checked,
// dims/counts are bounded against sane maxima, and the trailing payload
// checksum is verified; corrupt files raise util::CorruptArtifactError,
// unreadable ones util::IoError. Only format 6 loads; files of any other
// version raise util::CorruptArtifactError naming it.
GnnPredictor load_predictor(const std::string& path);

// In-memory forms of the same format; the checkpoint writer embeds the
// model blob alongside its optimiser/RNG state.
std::string predictor_to_bytes(const GnnPredictor& predictor);
GnnPredictor predictor_from_bytes(std::string_view bytes, const std::string& context);

// The matrix block model files, checkpoints and the golden fixtures
// (gnn/golden.h) share: a u64 count, then per matrix u64 rows, u64 cols
// and rows*cols f32 values. The reader bounds the count and dims and
// length-checks each matrix's data before allocating it.
void write_matrices(util::ByteWriter& w, std::span<const nn::Matrix> ms);
std::vector<nn::Matrix> read_matrices(util::ByteReader& r);

}  // namespace paragraph::core
