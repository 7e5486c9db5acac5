// Lint self-test fixture (never compiled): the simulators sit above the
// served layers, so they may include both.  Must lint clean.
#include "fault/recovery.h"
#include "placement/migration.h"
#include "service/service.h"
#include "sim/event_queue.h"
