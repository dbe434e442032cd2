#include "nn/trainer.h"

#include <algorithm>

#include "nn/loss.h"

namespace repro::nn {

double Evaluate(Sequential& model, const data::Dataset& d,
                std::size_t batch_size) {
  REPRO_REQUIRE(batch_size > 0, "Evaluate: batch size must be positive");
  const std::size_t dim = d.dim();
  std::size_t correct = 0;
  Matrix x;
  // Every sample is scored: the final batch may be short.
  for (std::size_t begin = 0; begin < d.size(); begin += batch_size) {
    const std::size_t rows = std::min(batch_size, d.size() - begin);
    if (x.rows() != rows) x = Matrix(rows, dim);
    std::copy(d.images.data() + begin * dim,
              d.images.data() + (begin + rows) * dim, x.data());
    const Matrix& logits = model.Forward(x, /*train=*/false);
    for (std::size_t r = 0; r < rows; ++r) {
      const float* row = logits.data() + r * logits.cols();
      std::size_t argmax = 0;
      for (std::size_t c = 1; c < logits.cols(); ++c) {
        if (row[c] > row[argmax]) argmax = c;
      }
      correct += argmax == d.labels[begin + r] ? 1 : 0;
    }
  }
  return d.size() == 0 ? 0.0
                       : 100.0 * static_cast<double>(correct) /
                             static_cast<double>(d.size());
}

TrainResult Train(Sequential& model, const data::Dataset& train,
                  const data::Dataset& test, const TrainConfig& config) {
  data::Split split = data::SplitValidation(train, config.val_fraction);

  TrainResult result;
  result.n_params = model.paramCount();

  Sgd opt(model.parameters(),
          Sgd::Config{config.lr, config.momentum, 0.0});
  Rng rng(config.seed);
  data::BatchIterator it(split.train, config.batch_size, rng);

  Matrix x, dlogits;
  std::vector<std::uint8_t> y;
  double last_loss = 0.0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    it.Reset();
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    while (it.Next(x, y)) {
      const Matrix& logits = model.Forward(x, /*train=*/true);
      LossResult lr = SoftmaxCrossEntropy(logits, y, &dlogits);
      opt.ZeroGrad();
      model.Backward(dlogits);
      opt.Step();
      epoch_loss += lr.loss;
      ++batches;
      ++result.steps;
    }
    last_loss = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
    const double val_acc = Evaluate(model, split.val);
    result.epoch_val_accuracy.push_back(val_acc);
    result.val_accuracy = std::max(result.val_accuracy, val_acc);
  }
  result.final_train_loss = last_loss;
  result.test_accuracy = Evaluate(model, test);
  return result;
}

}  // namespace repro::nn
