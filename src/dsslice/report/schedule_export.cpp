#include "dsslice/report/schedule_export.hpp"

#include <cstdio>
#include <sstream>

#include "dsslice/report/csv.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

std::string num(double x) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", x);
  return buffer;
}

}  // namespace

std::string schedule_to_csv(const Application& app,
                            const DeadlineAssignment& assignment,
                            const Schedule& schedule) {
  DSSLICE_REQUIRE(assignment.windows.size() == app.task_count(),
                  "assignment size mismatch");
  std::ostringstream os;
  os << "task,name,processor,start,finish,arrival,deadline,laxity_used\n";
  for (NodeId v = 0; v < app.task_count(); ++v) {
    if (!schedule.placed(v)) {
      continue;
    }
    const ScheduledTask& e = schedule.entry(v);
    const Window& w = assignment.windows[v];
    os << v << "," << csv_escape(app.task(v).name) << "," << e.processor
       << "," << num(e.start) << "," << num(e.finish) << ","
       << num(w.arrival) << "," << num(w.deadline) << ","
       << num(w.deadline - e.finish) << "\n";
  }
  return os.str();
}

std::string schedule_to_json(const Application& app,
                             const DeadlineAssignment& assignment,
                             const Schedule& schedule) {
  DSSLICE_REQUIRE(assignment.windows.size() == app.task_count(),
                  "assignment size mismatch");
  std::ostringstream os;
  os << "{\"makespan\":" << num(schedule.makespan())
     << ",\"processors\":" << schedule.processor_count() << ",\"tasks\":[";
  bool first = true;
  for (NodeId v = 0; v < app.task_count(); ++v) {
    if (!schedule.placed(v)) {
      continue;
    }
    const ScheduledTask& e = schedule.entry(v);
    const Window& w = assignment.windows[v];
    os << (first ? "" : ",") << "{\"id\":" << v << ",\"name\":\""
       << json_escape(app.task(v).name) << "\",\"proc\":" << e.processor
       << ",\"start\":" << num(e.start) << ",\"finish\":" << num(e.finish)
       << ",\"arrival\":" << num(w.arrival)
       << ",\"deadline\":" << num(w.deadline) << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

}  // namespace dsslice
