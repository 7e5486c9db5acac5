// Fixture: simulator headers in the served layers.  Lines 9-13 must trip
// vcopt-served-layering: vcopt_service links cell, placement, cluster,
// obs, check and util, and none of the simulators above them.
//
// Lines 9-13 are position-sensitive: tools/lint_selftest.py asserts the
// exact (line, rule) pairs.
#include "cell/router.h"
#include "placement/migration.h"
#include "dataflow/dag.h"
#include "fault/recovery.h"
#include "mapreduce/engine.h"
#include "rebalance/rebalancer.h"
#  include "sim/event_queue.h"
// A commented-out include stays silent: #include "sim/periodic.h"
#include "cluster/cloud.h"  // so does a served header named "sim/" in a comment
#include <map>
