"""``python -m repro.streaming``: the fold process ``serve-http
--ingest-wal`` spawns (see :mod:`repro.streaming.updater`)."""

import sys

from repro.streaming.updater import main

sys.exit(main())
