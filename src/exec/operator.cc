#include "exec/operator.h"

#include <utility>

namespace smoothscan {

Status Operator::Open() {
  exhausted_ = false;
  ResetCycle();
  return OpenImpl();
}

bool Operator::NextBatch(TupleBatch* out) {
  out->Clear();
  if (exhausted_) return false;
  if (!NextBatchImpl(out)) exhausted_ = true;
  return !out->empty();
}

void Operator::Close() {
  exhausted_ = true;
  CloseImpl();
}

uint64_t Drain(Operator* op, std::vector<Tuple>* out, size_t batch_size) {
  TupleBatch batch(batch_size);
  uint64_t n = 0;
  while (op->NextBatch(&batch)) {
    n += batch.size();
    if (out != nullptr) {
      for (size_t i = 0; i < batch.size(); ++i) {
        std::swap(out->emplace_back(), batch.row(i));
      }
    }
  }
  return n;
}

}  // namespace smoothscan
