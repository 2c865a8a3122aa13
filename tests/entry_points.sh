#!/usr/bin/env bash
# The pinned output and exit code of each command of the installed entry
# point.  CI runs it after `pip install .` as `bash -e tests/entry_points.sh`,
# and tests/test_workflow.py runs it from the source tree.
interlace edgewise --r 4 --n 7 --verify
test "$(interlace edgewise --r 2 --n 5 --component 1)" = "0,0,0,1"
test "$(interlace edgewise --r 3 --n 4 --component 0)" = "0,0,6"
status=0
interlace check compatible 4,4,1 9,6,1 || status=$?
test "$status" -eq 1
test "$(interlace matrix classify-all)" = "allowed: 40, forbidden: 41, disagreements: 0"
first=$(set -o pipefail; interlace matrix closure | head -n 1)
test "$first" = "closure size: 40"
test "$(set -o pipefail; interlace --json matrix closure | sha256sum | cut -d ' ' -f 1)" = "bdaeb21db79d1f0aa1c8c90b9020b7a178b1e695dd50208f5fe47e737853944f"
printf '[["1","0"],["0","0"]]' > staircase-miss.json
out=$(interlace matrix check staircase-miss.json)
test "$out" = "preserves: PASS, ferrers: FAIL"
test "$(interlace --json check realrooted 6,-2097152,-3,1048576)" = '{"command": "check", "params": {"kind": "realrooted", "polys": ["6,-2097152,-3,1048576"]}, "status": "PASS", "result": {"certificates": [[{"lo": "-3/1", "hi": "0/1", "mult": 1}, {"lo": "3/1048576", "hi": "3/1048576", "mult": 1}, {"lo": "3/4", "hi": "3/2", "mult": 1}]]}}'
test "$(interlace --json check realrooted 0,1,10,1)" = '{"command": "check", "params": {"kind": "realrooted", "polys": ["0,1,10,1"]}, "status": "PASS", "result": {"certificates": [[{"lo": "-11/1", "hi": "-11/2", "mult": 1}, {"lo": "-11/64", "hi": "-11/128", "mult": 1}, {"lo": "0/1", "hi": "0/1", "mult": 1}]]}}'
test "$(interlace --json check realrooted 1,-3,-3,1)" = '{"command": "check", "params": {"kind": "realrooted", "polys": ["1,-3,-3,1"]}, "status": "PASS", "result": {"certificates": [[{"lo": "-1/1", "hi": "-1/1", "mult": 1}, {"lo": "0/1", "hi": "2/1", "mult": 1}, {"lo": "2/1", "hi": "4/1", "mult": 1}]]}}'
test "$(interlace --json check realrooted 1,1,-7,-7,1,1)" = '{"command": "check", "params": {"kind": "realrooted", "polys": ["1,1,-7,-7,1,1"]}, "status": "PASS", "result": {"certificates": [[{"lo": "-4/1", "hi": "-2/1", "mult": 1}, {"lo": "-1/1", "hi": "-1/1", "mult": 1}, {"lo": "-3/4", "hi": "0/1", "mult": 1}, {"lo": "0/1", "hi": "2/1", "mult": 1}, {"lo": "2/1", "hi": "4/1", "mult": 1}]]}}'
test "$(interlace --json check realrooted 2,17,44,44,17,2)" = '{"command": "check", "params": {"kind": "realrooted", "polys": ["2,17,44,44,17,2"]}, "status": "PASS", "result": {"certificates": [[{"lo": "-23/4", "hi": "-23/8", "mult": 1}, {"lo": "-2/1", "hi": "-2/1", "mult": 1}, {"lo": "-1/1", "hi": "-1/1", "mult": 1}, {"lo": "-1/2", "hi": "-1/2", "mult": 1}, {"lo": "-23/64", "hi": "0/1", "mult": 1}]]}}'
test "$(interlace --json check realrooted 0,-2,-4,-1,2,1)" = '{"command": "check", "params": {"kind": "realrooted", "polys": ["0,-2,-4,-1,2,1"]}, "status": "PASS", "result": {"certificates": [[{"lo": "-3/2", "hi": "-9/8", "mult": 1}, {"lo": "-1/1", "hi": "-1/1", "mult": 2}, {"lo": "0/1", "hi": "0/1", "mult": 1}, {"lo": "3/4", "hi": "3/2", "mult": 1}]]}}'
test "$(interlace --json check realrooted 0,-2,0,100)" = '{"command": "check", "params": {"kind": "realrooted", "polys": ["0,-2,0,100"]}, "status": "PASS", "result": {"certificates": [[{"lo": "-1/4", "hi": "-1/8", "mult": 1}, {"lo": "0/1", "hi": "0/1", "mult": 1}, {"lo": "1/8", "hi": "1/4", "mult": 1}]]}}'
test "$(interlace --json check realrooted 0,0,1,1902,44803,116304,44803,1902,1)" = '{"command": "check", "params": {"kind": "realrooted", "polys": ["0,0,1,1902,44803,116304,44803,1902,1"]}, "status": "PASS", "result": {"certificates": [[{"lo": "-116305/32", "hi": "-116305/64", "mult": 1}, {"lo": "-116305/4096", "hi": "-116305/8192", "mult": 1}, {"lo": "-116305/32768", "hi": "-116305/65536", "mult": 1}, {"lo": "-116305/262144", "hi": "-116305/524288", "mult": 1}, {"lo": "-116305/2097152", "hi": "-116305/4194304", "mult": 1}, {"lo": "-116305/134217728", "hi": "-116305/268435456", "mult": 1}, {"lo": "0/1", "hi": "0/1", "mult": 2}]]}}'
status=0
interlace check realrooted 1,9,26,33,26,9,1 || status=$?
test "$status" -eq 1
interlace check realrooted 1,-2,1
interlace check realrooted 1,3,3,1
status=0
interlace check realrooted 1,1,1 || status=$?
test "$status" -eq 1
test "$(interlace --json check realrooted 1,6,11,6,1)" = '{"command": "check", "params": {"kind": "realrooted", "polys": ["1,6,11,6,1"]}, "status": "PASS", "result": {"certificates": [[{"lo": "-4/1", "hi": "-2/1", "mult": 2}, {"lo": "-2/1", "hi": "0/1", "mult": 2}]]}}'
status=0
interlace check realrooted 1,2,3,2,1 || status=$?
test "$status" -eq 1
status=0
interlace check realrooted 1,0,3,0,1 || status=$?
test "$status" -eq 1
test "$(interlace --json check realrooted 10000000000000000000000000000000000000000,60000000000000000000100000000000000000000,110000000000000000000300000000000000000000,60000000000000000000100000000000000000000,10000000000000000000000000000000000000000)" = '{"command": "check", "params": {"kind": "realrooted", "polys": ["10000000000000000000000000000000000000000,60000000000000000000100000000000000000000,110000000000000000000300000000000000000000,60000000000000000000100000000000000000000,10000000000000000000000000000000000000000"]}, "status": "PASS", "result": {"certificates": [[{"lo": "-96588405933484603437/36893488147419103232", "hi": "-1545414494935753654979/590295810358705651712", "mult": 1}, {"lo": "-1545414494935753654979/590295810358705651712", "hi": "-772707247467876827483/295147905179352825856", "mult": 1}, {"lo": "-28184117017545412521/73786976294838206464", "hi": "-450945872280726600323/1180591620717411303424", "mult": 1}, {"lo": "-450945872280726600323/1180591620717411303424", "hi": "-225472936140363300155/590295810358705651712", "mult": 1}]]}}'
test "$(interlace check interleave 8,6,1 3,4,1)" = "PASS"
status=0
interlace check interleave 3,4,1 8,6,1 || status=$?
test "$status" -eq 1
e1=$(interlace edgewise --r 6 --n 12 --component 1)
e2=$(interlace edgewise --r 6 --n 12 --component 2)
test "$(interlace check interleave "$e1" "$e2")" = "PASS"
status=0
interlace check interleave "$e2" "$e1" || status=$?
test "$status" -eq 1
interlace edgewise --r 4 --n 6 --gamma 1,2,2,1 --verify
test "$(interlace words --r 6 --n 9 --gamma 1,1,1,1,1,1 --closed)" = "0,0,0,48,6391,6391,48"
status=0
interlace fh --h 2,1 || status=$?
test "$status" -eq 2
status=0
interlace words --r 8 --n 6000 || status=$?
test "$status" -eq 2
status=0
interlace words --r 2 --n 5000 || status=$?
test "$status" -eq 2
status=0
interlace edgewise --r 1 --n 1 || status=$?
test "$status" -eq 2
