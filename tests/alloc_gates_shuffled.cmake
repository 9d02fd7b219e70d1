# Runs each allocation gate binary in GATES (a list of paths) with
# --gtest_shuffle --gtest_repeat=3 and fails if any run fails. gtest prints
# the shuffle seed, so a failing order can be replayed with
# --gtest_random_seed.
foreach(gate IN LISTS GATES)
  execute_process(
    COMMAND ${gate} --gtest_shuffle --gtest_repeat=3 --gtest_brief=1
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${gate} failed in shuffled order (exit ${status})")
  endif()
endforeach()
