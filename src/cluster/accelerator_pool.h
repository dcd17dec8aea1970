// AcceleratorPool: N replicated instances of one generated design.
//
// Each replica owns a private DRAM MemoryImage (copied from the image
// provisioned once) and a SystemContext over the one raw-weight snapshot
// decoded from the provisioned image and shared by every replica — the
// software model of a board (or a fleet) provisioned with N copies of
// the same accelerator.  The pool also owns one execution lane per
// replica: a FIFO work deque drained by a dedicated thread, so the
// wall-clock cost of simulating replicas overlaps.
//
// The pool is policy-free: *which* replica runs what, and when in
// simulated time, is decided before anything is posted (serve::Planner
// for the server); a task closure only touches its replica's image and
// context.  This keeps the replication substrate reusable for servers,
// benches and tests alike.
//
// Threading contract: Post() calls must come from one thread at a time
// (the server holds its submit lock).  A replica's image and context
// are touched only by its own lane thread while the pool runs, and may
// be read by anyone after Join().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/system_sim.h"

namespace db::cluster {

/// One simulated accelerator instance.
struct Replica {
  explicit Replica(SystemReplica system)
      : image(std::move(system.image)),
        context(std::move(system.context)) {}

  MemoryImage image;                       // private DRAM bytes
  std::unique_ptr<SystemContext> context;  // on the pool's shared snapshot
};

class AcceleratorPool {
 public:
  /// Decode the provisioned image's weights once, stamp out `replicas`
  /// copies of the image with a SystemContext each on that one shared
  /// snapshot, and start one lane thread per replica.
  AcceleratorPool(const Network& net, const AcceleratorDesign& design,
                  const MemoryImage& provisioned, int replicas);

  /// Joins the lane threads (abandoning queued work if Close was never
  /// called).
  ~AcceleratorPool();

  AcceleratorPool(const AcceleratorPool&) = delete;
  AcceleratorPool& operator=(const AcceleratorPool&) = delete;

  int size() const { return static_cast<int>(replicas_.size()); }

  /// The replica's state.  While the pool runs, only replica r's own
  /// tasks may touch replica(r); after Join() anyone may read it.
  Replica& replica(int r) { return *replicas_[static_cast<std::size_t>(r)]; }
  const Replica& replica(int r) const {
    return *replicas_[static_cast<std::size_t>(r)];
  }

  /// Enqueue a task on replica r's lane (FIFO per lane).
  void Post(int r, std::function<void()> task);

  /// Close every lane's intake; lane threads exit once their deques
  /// drain.  Idempotent.
  void Close();

  /// Wait for every lane thread to finish (call Close first, or queued
  /// work keeps them alive).  Idempotent.
  void Join();

 private:
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> work;
    bool closed = false;
    std::thread thread;
  };

  void RunLane(int index);

  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace db::cluster
