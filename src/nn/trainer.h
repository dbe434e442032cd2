// Training loop for the SHL benchmark (Section 4.2 / Table 4): SGD with the
// paper's Table 3 hyperparameters, 15% validation split, accuracy on a held
// -out test set. Wall-clock is never reported here -- device time comes from
// the simulators via core::TrainStepSeconds.
#pragma once

#include "data/dataset.h"
#include "nn/model.h"
#include "nn/optimizer.h"

namespace repro::nn {

struct TrainConfig {
  std::size_t epochs = 3;
  std::size_t batch_size = 50;   // Table 3
  double lr = 0.001;             // Table 3
  double momentum = 0.9;         // Table 3
  double val_fraction = 0.15;    // Table 3
  std::uint64_t seed = 3;
};

struct TrainResult {
  double test_accuracy = 0.0;   // percent
  double val_accuracy = 0.0;    // percent (best epoch)
  double final_train_loss = 0.0;
  std::size_t n_params = 0;
  std::size_t steps = 0;        // SGD steps performed
  std::vector<double> epoch_val_accuracy;
};

// Trains `model` on `train` (internally split into train/val) and evaluates
// on `test`. Deterministic given the config seed.
TrainResult Train(Sequential& model, const data::Dataset& train,
                  const data::Dataset& test, const TrainConfig& config);

// Evaluates accuracy (percent) over every sample of a dataset, in batches of
// at most batch_size rows (the last batch may be short).
double Evaluate(Sequential& model, const data::Dataset& d,
                std::size_t batch_size = 200);

}  // namespace repro::nn
