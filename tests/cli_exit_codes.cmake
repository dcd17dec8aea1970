# Asserts the deepburning CLI's documented exit-code contract:
#   0 — success
#   2 — user-facing error (db::Error: bad flags, unreadable files)
#   3 — internal invariant violation (a DB_CHECK fired)
# Run via: ctest -R cli_exit_codes  (wired up in tests/CMakeLists.txt,
# which passes -DDEEPBURNING=<path to the binary>).
if(NOT DEFINED DEEPBURNING)
  message(FATAL_ERROR "pass -DDEEPBURNING=<path to the deepburning binary>")
endif()

function(expect_exit code)
  execute_process(COMMAND ${DEEPBURNING} ${ARGN}
    RESULT_VARIABLE result OUTPUT_QUIET ERROR_QUIET)
  if(NOT result EQUAL ${code})
    message(FATAL_ERROR
      "deepburning ${ARGN}: expected exit ${code}, got ${result}")
  endif()
endfunction()

expect_exit(0 --help)
expect_exit(2 --model /nonexistent/model.prototxt)       # db::Error
expect_exit(2 --no-such-flag)                            # db::Error
expect_exit(2 serve --zoo no-such-model)                 # db::Error
expect_exit(2 serve --zoo MNIST --admission=bogus)       # db::Error
expect_exit(2 serve --zoo MNIST --faults=bogus-key=1)    # db::Error
expect_exit(2 serve --zoo MNIST --replicas 0)            # db::Error
expect_exit(2 serve --zoo MNIST --router=bogus)          # db::Error
expect_exit(2 serve --zoo MNIST --breaker=bogus-key=1)   # db::Error
expect_exit(2 serve --zoo MNIST --breaker=failures=0)    # db::Error
expect_exit(2 serve --zoo MNIST --hedge-after-cycles -1) # db::Error
expect_exit(2 serve --zoo MNIST --requests abc)          # db::Error
expect_exit(2 serve --zoo MNIST --requests 99999999999)  # db::Error
expect_exit(2 serve --zoo MNIST --queue-capacity -1)     # db::Error
expect_exit(2 serve --zoo MNIST --batch four)            # db::Error
expect_exit(2 serve --zoo MNIST --breaker=failures=2147483648) # db::Error
expect_exit(2 serve --zoo MNIST --breaker=failures=4294967297) # db::Error
expect_exit(2 serve --zoo MNIST --faults=flips=99999999999999) # db::Error
expect_exit(3 --self-test-internal-error)                # DB_CHECK

# Integer prototxt fields reject fractions and values outside int64
# (a straight double-to-int64 cast would truncate or be UB).
set(int_field_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes_models")
file(MAKE_DIRECTORY "${int_field_dir}")
foreach(value 2.5 1e30)
  string(REPLACE "." "_" value_name "${value}")
  set(model "${int_field_dir}/num_output_${value_name}.prototxt")
  file(WRITE "${model}"
    "name: \"int_field\"\ninput: \"data\"\n"
    "input_dim: 1\ninput_dim: 1\ninput_dim: 4\ninput_dim: 4\n"
    "layers { name: \"fc1\" type: INNER_PRODUCT bottom: \"data\" "
    "top: \"fc1\" inner_product_param { num_output: ${value} } }\n")
  expect_exit(2 --model "${model}")                      # db::Error
endforeach()

# Hostile shapes and constraint doubles end in a db::Error, never in a
# DB_CHECK, a std::bad_alloc or a silent success.  expect_error also
# asserts the diagnostic names the actual problem.
function(expect_error pattern)
  execute_process(COMMAND ${DEEPBURNING} ${ARGN}
    RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT result EQUAL 2)
    message(FATAL_ERROR
      "deepburning ${ARGN}: expected exit 2, got ${result}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
      "deepburning ${ARGN}: stderr does not match '${pattern}':\n${err}")
  endif()
endfunction()

set(hostile_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes_hostile")
file(MAKE_DIRECTORY "${hostile_dir}")
# Blob element counts overflow int64 (1 x 4e9 x 4e9) or pass the cap.
file(WRITE "${hostile_dir}/huge_input.prototxt"
  "name: \"huge_input\"\ninput: \"data\"\n"
  "input_dim: 1\ninput_dim: 1\ninput_dim: 4000000000\n"
  "input_dim: 4000000000\n"
  "layers { name: \"fc1\" type: INNER_PRODUCT bottom: \"data\" "
  "top: \"fc1\" inner_product_param { num_output: 4 } }\n")
expect_error("layer 'data': input blob .*exceeds the cap"
  --model "${hostile_dir}/huge_input.prototxt")
file(WRITE "${hostile_dir}/huge_fc.prototxt"
  "name: \"huge_fc\"\ninput: \"data\"\n"
  "input_dim: 1\ninput_dim: 1\ninput_dim: 4\ninput_dim: 4\n"
  "layers { name: \"fc1\" type: INNER_PRODUCT bottom: \"data\" "
  "top: \"fc1\" inner_product_param { num_output: 3000000000000 } }\n")
expect_error("layer 'fc1': .*exceeds the cap"
  --model "${hostile_dir}/huge_fc.prototxt")
# A pooling window larger than its input, and a pad near 2^62 whose
# window arithmetic would wrap.
foreach(pool "kernel_size: 5 stride: 1" "kernel_size: 2 pad: 4611686018427387904")
  string(REGEX REPLACE "[^a-z0-9]+" "_" name "${pool}")
  set(model "${hostile_dir}/pool_${name}.prototxt")
  file(WRITE "${model}"
    "name: \"pool\"\ninput: \"data\"\n"
    "input_dim: 1\ninput_dim: 1\ninput_dim: 4\ninput_dim: 4\n"
    "layers { name: \"pool1\" type: POOLING bottom: \"data\" "
    "top: \"pool1\" pooling_param { pool: MAX ${pool} } }\n")
  expect_error("pool1" --model "${model}")
endforeach()
# A constraint double outside its range (infinite or vanishing), a
# negative resource count and a bram_kb whose byte count overflows
# int64.
set(small_model "${hostile_dir}/small.prototxt")
file(WRITE "${small_model}"
  "name: \"small\"\ninput: \"data\"\n"
  "input_dim: 1\ninput_dim: 1\ninput_dim: 4\ninput_dim: 4\n"
  "layers { name: \"fc1\" type: INNER_PRODUCT bottom: \"data\" "
  "top: \"fc1\" inner_product_param { num_output: 4 } }\n")
foreach(field_value
    "frequency_mhz: 1e999" "frequency_mhz: 0.000000001"
    "dram_bandwidth_gbs: 1e999"
    "dram_bandwidth_gbs: 0" "dsp: -5" "lut: -7" "ff: -3"
    "bram_kb: 9000000000000000000")
  string(REGEX REPLACE "[^a-z0-9]+" "_" name "${field_value}")
  string(REGEX REPLACE ":.*" "" field "${field_value}")
  set(constraint "${hostile_dir}/${name}.prototxt")
  file(WRITE "${constraint}" "${field_value}\n")
  expect_error("${field} must be in"
    --model "${small_model}" --constraint "${constraint}" --simulate
    --out "${hostile_dir}/out")
endforeach()

# The cluster-resilience flags fail fast (before any generation work)
# with byte-stable error text: two identical invocations emit identical
# stderr bytes.
foreach(bad_flags "--breaker=bogus-key=1" "--hedge-after-cycles;-1")
  foreach(run a b)
    execute_process(
      COMMAND ${DEEPBURNING} serve --zoo MNIST ${bad_flags}
      RESULT_VARIABLE flag_result
      ERROR_VARIABLE flag_err_${run} OUTPUT_QUIET)
    if(NOT flag_result EQUAL 2)
      message(FATAL_ERROR
        "serve ${bad_flags}: expected exit 2, got ${flag_result}")
    endif()
  endforeach()
  if(NOT flag_err_a STREQUAL flag_err_b)
    message(FATAL_ERROR "error text is not byte-stable (${bad_flags}):\n"
      "--- run a ---\n${flag_err_a}\n--- run b ---\n${flag_err_b}")
  endif()
  if(flag_err_a STREQUAL "")
    message(FATAL_ERROR
      "serve ${bad_flags}: expected a diagnostic on stderr")
  endif()
endforeach()

# `deepburning verify`: exit 0 with a clean verdict for a generated
# design, exit 2 when the report carries error diagnostics.  The hidden
# --self-test-break flag applies the shared BreakRule corruption, so the
# CLI path and the analysis_test negatives exercise identical breakage.
expect_exit(0 verify --help)
expect_exit(0 verify --zoo MNIST)
expect_exit(2 verify --zoo no-such-model)                # db::Error
expect_exit(2 verify --self-test-break bogus.rule --zoo MNIST)
foreach(rule
    agu.bounds mem.layout sched.hazard fold.coverage
    buffer.capacity conn.ports lut.domain res.budget)
  expect_exit(2 verify --zoo Cifar --self-test-break ${rule})
endforeach()

# `deepburning verify --rtl`: the rtl.* netlist passes alone.  Every
# error-severity mutation class exits 2; the dead-register class only
# warns, so the design stays legal and the exit code stays 0.  The
# hidden --self-test-break-rtl flag applies the shared BreakRtlRule
# corruption, mirroring the rtl_analysis_test negatives.
expect_exit(0 verify --zoo MNIST --rtl)
expect_exit(2 verify --zoo MNIST --rtl --self-test-break-rtl bogus.class)
foreach(class drive.unbound drive.double width.slice clock.blocking
    comb.cycle)
  expect_exit(2 verify --zoo MNIST --rtl --self-test-break-rtl ${class})
endforeach()
expect_exit(0 verify --zoo MNIST --rtl --self-test-break-rtl dead.reg)

# `deepburning tune`: exit 0 on a successful exploration, exit 2 for a
# malformed model name, --budget, --objective, --sweep or --jobs value
# (all validated before any generator work runs).
expect_exit(0 tune --help)
expect_exit(0 tune ANN-0)
expect_exit(2 tune)                                      # no model
expect_exit(2 tune no-such-model)                        # db::Error
expect_exit(2 tune ANN-0 --budget=huge)                  # db::Error
expect_exit(2 tune ANN-0 --objective=throughput)         # db::Error
expect_exit(2 tune ANN-0 --sweep=warp=9)                 # db::Error
expect_exit(2 tune ANN-0 --sweep=port=24)                # db::Error
expect_exit(2 tune ANN-0 --jobs=0)                       # db::Error
expect_exit(2 tune ANN-0 --jobs=none)                    # db::Error
expect_exit(2 tune ANN-0 --jobs=99999999999999999999)    # db::Error

# Malformed tuning flags fail fast with byte-stable stderr.
foreach(bad_flags "--budget=huge" "--objective=throughput" "--jobs=0")
  foreach(run a b)
    execute_process(
      COMMAND ${DEEPBURNING} tune ANN-0 ${bad_flags}
      RESULT_VARIABLE tune_flag_result
      ERROR_VARIABLE tune_err_${run} OUTPUT_QUIET)
    if(NOT tune_flag_result EQUAL 2)
      message(FATAL_ERROR
        "tune ${bad_flags}: expected exit 2, got ${tune_flag_result}")
    endif()
  endforeach()
  if(NOT tune_err_a STREQUAL tune_err_b)
    message(FATAL_ERROR "tune error text is not byte-stable "
      "(${bad_flags}):\n"
      "--- run a ---\n${tune_err_a}\n--- run b ---\n${tune_err_b}")
  endif()
  if(tune_err_a STREQUAL "")
    message(FATAL_ERROR
      "tune ${bad_flags}: expected a diagnostic on stderr")
  endif()
endforeach()

# The tune report is byte-identical across reruns AND across --jobs
# values, in both text and JSON form — parallelism is a wall-clock knob,
# never an output knob.
foreach(fmt text json)
  set(tune_fmt_flag)
  if(fmt STREQUAL json)
    set(tune_fmt_flag --json)
  endif()
  foreach(run a_1 b_8)
    string(REGEX REPLACE ".*_" "" tune_jobs "${run}")
    execute_process(
      COMMAND ${DEEPBURNING} tune ANN-0 --jobs ${tune_jobs}
              ${tune_fmt_flag}
      RESULT_VARIABLE tune_result
      OUTPUT_VARIABLE tune_${run} ERROR_QUIET)
    if(NOT tune_result EQUAL 0)
      message(FATAL_ERROR
        "tune ANN-0 --jobs ${tune_jobs} (${fmt}): expected exit 0, "
        "got ${tune_result}")
    endif()
  endforeach()
  if(NOT tune_a_1 STREQUAL tune_b_8)
    message(FATAL_ERROR "tune report is not byte-stable across --jobs "
      "(${fmt}):\n"
      "--- jobs 1 ---\n${tune_a_1}\n--- jobs 8 ---\n${tune_b_8}")
  endif()
  if(tune_a_1 STREQUAL "")
    message(FATAL_ERROR "tune ANN-0 (${fmt}): expected a report")
  endif()
endforeach()

# Report rendering is byte-stable: two runs over the same broken design
# emit identical bytes, in both text and JSON form.
foreach(fmt text json)
  set(fmt_flag)
  if(fmt STREQUAL json)
    set(fmt_flag --json)
  endif()
  foreach(run a b)
    execute_process(
      COMMAND ${DEEPBURNING} verify --zoo Cifar
              --self-test-break mem.layout ${fmt_flag}
      RESULT_VARIABLE verify_result
      OUTPUT_VARIABLE verify_${run} ERROR_QUIET)
    if(NOT verify_result EQUAL 2)
      message(FATAL_ERROR
        "verify --self-test-break mem.layout (${fmt}): expected exit 2, "
        "got ${verify_result}")
    endif()
  endforeach()
  if(NOT verify_a STREQUAL verify_b)
    message(FATAL_ERROR "verify report is not byte-stable (${fmt}):\n"
      "--- run a ---\n${verify_a}\n--- run b ---\n${verify_b}")
  endif()
endforeach()

# The rtl.* report (stdout) and the generator's gate diagnostics
# (stderr) are byte-stable too: two runs over the same RTL mutation emit
# identical bytes in text and JSON form.
foreach(fmt text json)
  set(rtl_fmt_flag)
  if(fmt STREQUAL json)
    set(rtl_fmt_flag --json)
  endif()
  foreach(run a b)
    execute_process(
      COMMAND ${DEEPBURNING} verify --zoo MNIST --rtl
              --self-test-break-rtl drive.unbound ${rtl_fmt_flag}
      RESULT_VARIABLE rtl_result
      OUTPUT_VARIABLE rtl_out_${run} ERROR_VARIABLE rtl_err_${run})
    if(NOT rtl_result EQUAL 2)
      message(FATAL_ERROR
        "verify --rtl --self-test-break-rtl drive.unbound (${fmt}): "
        "expected exit 2, got ${rtl_result}")
    endif()
  endforeach()
  if(NOT rtl_out_a STREQUAL rtl_out_b)
    message(FATAL_ERROR "rtl report is not byte-stable (${fmt}):\n"
      "--- run a ---\n${rtl_out_a}\n--- run b ---\n${rtl_out_b}")
  endif()
  if(NOT rtl_err_a STREQUAL rtl_err_b)
    message(FATAL_ERROR "rtl stderr is not byte-stable (${fmt}):\n"
      "--- run a ---\n${rtl_err_a}\n--- run b ---\n${rtl_err_b}")
  endif()
  if(rtl_out_a STREQUAL "")
    message(FATAL_ERROR "verify --rtl (${fmt}): expected a report")
  endif()
endforeach()
