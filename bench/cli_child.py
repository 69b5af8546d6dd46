"""Run one `kfour` command in this process and report its phase timings.

Used by the traced cli-cold batch in place of `python -m kfour.cli`: the
last line of stderr carries this process's CPU time (ns) before
`import kfour.cli`, after it, and after `main` returned.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
start = time.process_time_ns()
import kfour.cli  # noqa: E402

imported = time.process_time_ns()
code = kfour.cli.main(sys.argv[1:])
done = time.process_time_ns()
sys.stdout.flush()
sys.stderr.write("kfour-bench-child " + json.dumps([start, imported, done]) + "\n")
sys.exit(code)
