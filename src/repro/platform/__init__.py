"""The no-code platform: sessions, the JSON API over Modes A/B/C, HTTP server, figures."""

from .api import ApiHandler
from .render import render_comparison_figure, render_slice_bundle, save_figure
from .server import PlatformServer
from .session import Session, SessionStore

__all__ = [
    "ApiHandler",
    "PlatformServer",
    "Session",
    "SessionStore",
    "render_comparison_figure",
    "render_slice_bundle",
    "save_figure",
]
