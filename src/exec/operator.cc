#include "exec/operator.h"

namespace smoothscan {

Status Operator::Open() {
  exhausted_ = false;
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

uint64_t Drain(Operator* op, std::vector<Tuple>* out) {
  return DrainBatched(op, out, kDefaultBatchSize);
}

uint64_t DrainBatched(Operator* op, std::vector<Tuple>* out,
                      size_t batch_size) {
  TupleBatch batch(batch_size);
  uint64_t n = 0;
  while (op->NextBatch(&batch)) {
    n += batch.size();
    if (out != nullptr) {
      for (size_t i = 0; i < batch.size(); ++i) out->push_back(batch.Take(i));
    }
  }
  return n;
}

}  // namespace smoothscan
