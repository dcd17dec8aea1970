#include "cluster/accelerator_pool.h"

#include <utility>

#include "common/error.h"

namespace db::cluster {

AcceleratorPool::AcceleratorPool(const Network& net,
                                 const AcceleratorDesign& design,
                                 const MemoryImage& provisioned,
                                 int replicas) {
  DB_CHECK_MSG(replicas >= 1, "pool needs at least one replica");
  for (SystemReplica& system :
       ReplicateSystem(net, design, provisioned, replicas))
    replicas_.push_back(std::make_unique<Replica>(std::move(system)));
  for (int r = 0; r < replicas; ++r)
    lanes_.push_back(std::make_unique<Lane>());
  for (int r = 0; r < replicas; ++r)
    lanes_[static_cast<std::size_t>(r)]->thread =
        std::thread([this, r] { RunLane(r); });
}

AcceleratorPool::~AcceleratorPool() {
  Close();
  Join();
}

void AcceleratorPool::Post(int r, std::function<void()> task) {
  Lane& lane = *lanes_[static_cast<std::size_t>(r)];
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    DB_CHECK_MSG(!lane.closed, "Post after Close");
    lane.work.push_back(std::move(task));
  }
  lane.cv.notify_one();
}

void AcceleratorPool::Close() {
  for (auto& lane : lanes_) {
    {
      std::lock_guard<std::mutex> lock(lane->mu);
      lane->closed = true;
    }
    lane->cv.notify_all();
  }
}

void AcceleratorPool::Join() {
  for (auto& lane : lanes_)
    if (lane->thread.joinable()) lane->thread.join();
}

void AcceleratorPool::RunLane(int index) {
  Lane& lane = *lanes_[static_cast<std::size_t>(index)];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(lane.mu);
      lane.cv.wait(lock, [&] { return lane.closed || !lane.work.empty(); });
      if (lane.work.empty()) return;  // closed and fully drained
      task = std::move(lane.work.front());
      lane.work.pop_front();
    }
    task();
  }
}

}  // namespace db::cluster
