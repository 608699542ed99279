// Fixture: process control without an allow annotation.
#include <unistd.h>

int fx_process() {
  return fork();
}
