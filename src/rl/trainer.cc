#include "rl/trainer.h"

#include <csignal>

namespace atena {

namespace {
/// The one mutation RequestTrainingStop performs, keeping it legal to call
/// from an asynchronous signal handler.
volatile std::sig_atomic_t g_training_stop_requested = 0;
}  // namespace

void RequestTrainingStop() { g_training_stop_requested = 1; }
bool TrainingStopRequested() { return g_training_stop_requested != 0; }
void ClearTrainingStopRequest() { g_training_stop_requested = 0; }

}  // namespace atena
